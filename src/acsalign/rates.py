"""Zero-forcing reception, achievable rates, and slope-based DoF estimates.

Conventions pinned here: each transmitter spends S*snr of power per S-slot
block, split equally over its streams; noise carries variance 1/2 per real
dimension; stream rates are 0.5*log2(1 + SINR) per block and sum rates are
reported per complex channel use (divide by S).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from . import _exports
from .channel import ComplexChannelMatrix
from .schemes import SCHEMES, BeamformerSet, SchemeSpec, _build_block
from .verify import _receivers, _verdict

__all__ = _exports(__name__)

DEFAULT_SNR_GRID_DB = (60.0, 70.0, 80.0, 90.0, 100.0, 110.0)

NOISE_VAR_PER_REAL_DIM = 0.5

# numpy's private stacked least-squares gufunc (LAPACK gelsd), which
# np.linalg.lstsq calls on one matrix at a time.  Pinned by a bit contract.
_LSTSQ = _umath_linalg.lstsq

# A fitted slope further than this from the secant over the top two grid points
# was not fitted in the asymptotic regime: two thirds of the acceptance suite's
# +-0.03 slope band, so a drift that could carry a slope out of it is flagged.
FIT_GAP = 0.02


class RankDeficientReceiverError(Exception):
    """A receiver whose stack `verify` does not call independent: no rate is reported for it."""

    def __init__(self, rx: int, detail: str):
        self.rx = rx
        self._detail = detail
        super().__init__(f"receiver {rx} is rank deficient: {detail}")

    def __reduce__(self):
        # Exception pickles its args, here only the message; rebuild from ours.
        return type(self), (self.rx, self._detail), self.__dict__


@contextmanager
def _overflow_guard(what: str):
    """Raise a ValueError naming `what` where the block overflows, not a warning and a wrong rate."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"rate arithmetic overflows at {what}") from None


def _lstsq_did_not_converge(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(a[i], b[i], rcond=None)'s solution for every i, as one
    gufunc call: the same gelsd on the same inputs with the same rcond and
    error handling, without numpy's per-call checks and copies."""
    with np.errstate(call=_lstsq_did_not_converge, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _LSTSQ(a, b, np.finfo(float).eps * max(a.shape[-2:]), signature="ddd->ddid")[0]


def _zf_solve(spec: SchemeSpec, receivers):
    """The one pass over desired streams of a block of trials, receiver by
    receiver: `(rx, unit combiners (trials, d, rows), gains on their own images
    (trials, d))`, a row and an entry per desired stream in desired_streams
    order.  `receivers` holds the block's receiver stacks and their singular
    values, one (stack (trials, rows, n), singular values (trials, n)) pair per
    receiver in receiver order (see verify._stacks).  A receiver that verify's
    verdict does not call independent raises RankDeficientReceiverError, for
    the first trial and receiver in that order; at any other, no residual is
    below the stack's smallest singular value.

    Stream j's combiner is its own image less the least-squares fit of the other
    columns.  A receiver's solves over the block are one stacked gelsd call (see
    _lstsq) on C-contiguous copies made by an index array on every axis, and
    its residuals, norms and gains are stacked matmuls: the bits of one
    np.linalg.lstsq, matvec and dot product per trial and stream on np.delete
    copies."""
    for trial in zip(*(svals for _, svals in receivers)):
        for rx, svals in enumerate(trial):
            verdict = _verdict(float(svals.min()))
            if verdict != "independent":
                raise RankDeficientReceiverError(rx, f"its stack is {verdict}, smallest singular value {svals.min():.3g}")
    for rx, (stack, _) in enumerate(receivers):
        trials, rows, n = stack.shape
        d = len(spec.desired_streams(rx))
        # others[i, j] is trial i's stack without column j.
        k = np.arange(n - 1)
        others = stack[np.arange(trials)[:, None, None, None], np.arange(rows)[:, None],
                       k + (k >= np.arange(d)[:, None, None])]
        own = np.ascontiguousarray(np.swapaxes(stack[..., :d], -1, -2))[..., None]
        w = own - np.matmul(others, _lstsq(others, own))
        w = w / np.sqrt(np.matmul(np.swapaxes(w, -1, -2), w))
        yield rx, w[..., 0], np.matmul(np.swapaxes(w, -1, -2), own)[..., 0, 0]


@dataclass(frozen=True)
class RateReport:
    per_receiver: tuple[float, ...]
    sum_rate: float


def _snr_value(snr) -> float:
    """`snr` as a float, or ValueError unless it is one positive finite number."""
    value = np.asarray(snr, dtype=float)
    if value.ndim:
        raise ValueError(f"snr must be one number, got shape {value.shape}")
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"snr must be positive and finite, got {float(value)!r}")
    return float(value)


def _block_rates(spec: SchemeSpec, magnitudes: np.ndarray, receivers, snrs: np.ndarray) -> np.ndarray:
    """Each receiver's zero-forcing rate per S-slot block at each of `snrs`, linear
    positive finite SNRs, for a block of trials: an array of shape (trials, snrs,
    receivers).  `magnitudes` holds the trials' link magnitudes, (trials, num_rx,
    num_tx), and `receivers` their receiver stacks (see _zf_solve).

    Stream power is S*snr*share, the desired gain is the squared projection
    of the rotated column on the combiner times the link magnitude squared,
    and residual interference is exactly nulled, so SINR = 2 * power * gain.
    The combiners do not depend on the SNR, so one zero-forcing pass gives each
    receiver one SINR block over the trials, the grid and its streams.  The
    squares are libm's pow, the bits of a per-stream `x ** 2`, which numpy's
    array square can miss in the last place; the stream rates are added in
    desired order, which a sum over the axis would reassociate.
    """
    S = spec.extension
    per_rx = np.zeros((len(magnitudes), snrs.size, spec.shape[0]))
    with _overflow_guard(f"snr {float(snrs.max())!r}"):
        for rx, _, gains in _zf_solve(spec, receivers):
            tx = [t for t, _ in spec.desired_streams(rx)]
            share = np.array([1.0 / len(spec.stream_rx[t]) for t in tx])
            link = np.float_power(magnitudes[:, rx, tx], 2)[:, None]
            sinr = S * snrs[:, None] * share * link * np.float_power(gains, 2)[:, None] / NOISE_VAR_PER_REAL_DIM
            rates = 0.5 * np.log2(1.0 + sinr)
            for j in range(len(tx)):
                per_rx[..., rx] += rates[..., j]
    return per_rx


def _set_rates(beamformers: BeamformerSet, channel: ComplexChannelMatrix, snrs: np.ndarray) -> np.ndarray:
    """_block_rates of one set on one channel, (snrs, receivers): a block of one
    whose stacks come from the set's columns."""
    return _block_rates(beamformers.spec, channel.magnitude[None], _receivers(beamformers, channel), snrs)[0]


def sum_rate(beamformers: BeamformerSet, channel: ComplexChannelMatrix, snr: float) -> RateReport:
    """Achieved rates under zero forcing at one operating SNR (linear scale),
    per complex channel use."""
    S = beamformers.spec.extension
    (row,) = _set_rates(beamformers, channel, np.array([_snr_value(snr)]))
    return RateReport(tuple(float(x) / S for x in row), float(row.sum()) / S)


@dataclass(frozen=True)
class DofEstimate:
    snr_grid_db: tuple[float, ...]
    sum_rates: tuple[float, ...]
    per_user_rates: tuple[tuple[float, ...], ...]
    slope: float
    intercept: float
    rms_residual: float
    secant: float

    @property
    def asymptotic(self) -> bool:
        """Whether the fitted slope agrees with the top-grid secant within FIT_GAP."""
        return abs(self.secant - self.slope) <= FIT_GAP


def validate_snr_grid(snr_grid_db) -> np.ndarray:
    """Check a dB grid is usable for slope regression and return it as an array.

    At least 4 strictly increasing points, all within [40, 140] dB: low enough
    to stay in floating range, high enough that the log(1+x) curvature has
    died out.
    """
    grid = np.asarray(snr_grid_db, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"snr grid must be a non-empty 1-d sequence, got shape {grid.shape}")
    if grid.size < 4:
        raise ValueError("snr grid needs at least 4 points")
    bad = np.flatnonzero(~np.isfinite(grid))
    if bad.size:
        raise ValueError(f"snr grid values must be finite, got {grid[bad[0]]:g} at position {bad[0] + 1}")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("snr grid must be strictly increasing")
    if grid[0] < 40.0 or grid[-1] > 140.0:
        raise ValueError("snr grid must lie within [40, 140] dB")
    return grid


def _db_to_linear(grid_db) -> list[float]:
    # Point by point: numpy's vectorized power can differ in the last bit.
    return [10.0 ** (db / 10.0) for db in grid_db]


def fit_dof(snr_grid_db, block_rates, extension=1) -> DofEstimate:
    """Least-squares line through sum rates against log2(snr); the slope is
    the DoF estimate.  `block_rates` holds, per grid point, each user's rate
    per block of `extension` slots; divided by it, they are the per-user rates
    the `DofEstimate` keeps, and their sums the sum rates it fits.  The secant
    over the top two grid points comes along as a check on the slope.  The
    grid is taken as already validated."""
    grid_db = np.asarray(snr_grid_db, dtype=float)
    rows = np.asarray(block_rates, dtype=float)
    x = grid_db / 10.0 * np.log2(10.0)
    y = rows.sum(axis=1) / extension
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    rms = float(np.sqrt(np.mean((fit - y) ** 2)))
    secant = float((y[-1] - y[-2]) / (x[-1] - x[-2]))
    return DofEstimate(tuple(float(g) for g in grid_db), tuple(float(r) for r in y),
                       tuple(tuple(float(r) for r in row) for row in rows / extension),
                       float(slope), float(intercept), rms, secant)


def estimate_dof(
    builder: Callable[[ComplexChannelMatrix, int], BeamformerSet],
    channel: ComplexChannelMatrix,
    seed: int,
    snr_grid_db=DEFAULT_SNR_GRID_DB,
) -> DofEstimate:
    """Least-squares slope of the sum rate against log2(snr) over a dB grid.

    The beamformers are built once per (channel, seed) and reused across the
    grid so the slope reflects the scheme, not re-randomization.
    """
    grid = validate_snr_grid(snr_grid_db)
    beamformers = builder(channel, seed)
    return fit_dof(grid, _set_rates(beamformers, channel, np.array(_db_to_linear(grid))), beamformers.spec.extension)


def _estimate_block(spec: SchemeSpec, channels, seeds, snr_grid_db) -> list:
    """estimate_dof with spec's builder for a block of trials, trial i on
    channels[i] from seeds[i]: each trial's DofEstimate, or the
    InfeasibleChannelError that refused its build, in trial order.  The rates
    read the stacks and singular values the builder's scoring computed, and the
    block's rates are one pass; only the slope fit runs trial by trial.  A spec
    without streams (the per-symbol baseline) fits `baseline_rate_profile` at
    each grid point instead.  The grid is taken as already validated, as
    fit_dof takes it, and converted once for both routes."""
    snrs = _db_to_linear(snr_grid_db)
    if not spec.stream_rx:
        return [fit_dof(snr_grid_db, [baseline_rate_profile(channel, snr) for snr in snrs]) for channel in channels]
    outcomes, receivers = _build_block(spec, channels, seeds)
    built = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, BeamformerSet)]
    if built:
        magnitudes = np.stack([channels[i].magnitude for i in built])
        block = _block_rates(spec, magnitudes, receivers, np.array(snrs))
        for i, rates in zip(built, block):
            outcomes[i] = fit_dof(snr_grid_db, rates, spec.extension)
    return outcomes


def baseline_rate_profile(channel: ComplexChannelMatrix, snr: float) -> np.ndarray:
    """Per-user rates of the better per-symbol baseline mode at this snr.

    Each user sends one circularly-symmetric stream per symbol and each
    receiver treats interference as noise of power 2 * NOISE_VAR_PER_REAL_DIM.
    Compares everybody-at-full-power against the best single user operating
    alone, and returns the winning mode's rate vector.  An snr that would
    overflow the lone user's rate overflows the full-power mode first.
    """
    snr = _snr_value(snr)
    if channel.num_rx != channel.num_tx:
        raise ValueError("the per-symbol baseline needs a square channel")
    k = channel.num_tx
    p = np.full(k, snr)
    g = channel.magnitude ** 2
    full = np.empty(k)
    with _overflow_guard(f"snr {snr!r}"):
        for rx in range(k):
            interference = float(g[rx] @ p) - g[rx, rx] * p[rx]
            full[rx] = np.log2(1.0 + g[rx, rx] * p[rx] / (2 * NOISE_VAR_PER_REAL_DIM + interference))
    best = int(np.argmax(np.diag(g)))
    single = np.zeros(k)
    single[best] = np.log2(1.0 + g[best, best] * snr)
    return single if single.sum() > full.sum() else full


def estimate_baseline_dof(channel: ComplexChannelMatrix, snr_grid_db=DEFAULT_SNR_GRID_DB) -> DofEstimate:
    """Least-squares slope of the per-symbol baseline's sum rate against
    log2(snr) over a dB grid: `baseline_rate_profile` at each grid point, the
    baseline's _estimate_block on a block of one."""
    return _estimate_block(SCHEMES["baseline"], [channel], [0], validate_snr_grid(snr_grid_db))[0]
