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

from . import _exports
from .channel import ComplexChannelMatrix
from .schemes import BeamformerSet
from .verify import _receivers

__all__ = _exports(__name__)

DEFAULT_SNR_GRID_DB = (60.0, 70.0, 80.0, 90.0, 100.0, 110.0)

NOISE_VAR_PER_REAL_DIM = 0.5

# A fitted slope further than this from the secant over the top two grid points
# was not fitted in the asymptotic regime: two thirds of the acceptance suite's
# +-0.03 slope band, so a drift that could carry a slope out of it is flagged.
FIT_GAP = 0.02


class RankDeficientReceiverError(Exception):
    """A receiver whose stack `verify` does not call independent: no rate is reported for it."""

    def __init__(self, rx: int, detail: str):
        self.rx = rx
        super().__init__(f"receiver {rx} is rank deficient: {detail}")


@contextmanager
def _overflow_guard(what: str):
    """Raise a ValueError naming `what` where the block overflows, not a warning and a wrong rate."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"rate arithmetic overflows at {what}") from None


def _zf_solve(beamformers: BeamformerSet, channel: ComplexChannelMatrix):
    """The one pass over desired streams, receiver by receiver, each in desired_streams
    order: `(rx, (tx, column), unit combiner, gain on its own image)`.  A receiver that
    verify's verdict does not call independent raises RankDeficientReceiverError; at
    any other, no residual is below the stack's smallest singular value.  Column j is
    copied to a contiguous vector first: on the strided view the solve and the dot
    product change last digits."""
    for rx, stack, _, svals, verdict in _receivers(beamformers, channel):
        if verdict != "independent":
            raise RankDeficientReceiverError(rx, f"its stack is {verdict}, smallest singular value {svals.min():.3g}")
        for j, key in enumerate(beamformers.spec.desired_streams(rx)):
            own = stack[:, j].copy()
            others = np.delete(stack, j, axis=1)
            coeffs, *_ = np.linalg.lstsq(others, own, rcond=None)
            w = own - others @ coeffs
            w = w / float(np.linalg.norm(w))
            yield rx, key, w, float(w @ own)


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


def _block_rates(beamformers: BeamformerSet, channel: ComplexChannelMatrix, snrs: np.ndarray) -> np.ndarray:
    """Each receiver's zero-forcing rate per S-slot block at each of `snrs`, linear
    positive finite SNRs: an array of shape (snrs, receivers).

    Stream power is S*snr*share, the desired gain is the squared projection
    of the rotated column on the combiner times the link magnitude squared,
    and residual interference is exactly nulled, so SINR = 2 * power * gain.
    The combiners do not depend on the SNR, so one zero-forcing pass adds each
    stream's rates over the grid to its receiver's.
    """
    spec = beamformers.spec
    S = spec.extension
    per_rx = np.zeros((snrs.size, spec.shape[0]))
    with _overflow_guard(f"snr {float(snrs.max())!r}"):
        for rx, (t, _), _, gain in _zf_solve(beamformers, channel):
            share = 1.0 / len(spec.stream_rx[t])
            sinr = S * snrs * share * channel.magnitude[rx, t] ** 2 * gain ** 2 / NOISE_VAR_PER_REAL_DIM
            per_rx[:, rx] += 0.5 * np.log2(1.0 + sinr)
    return per_rx


def sum_rate(beamformers: BeamformerSet, channel: ComplexChannelMatrix, snr: float) -> RateReport:
    """Achieved rates under zero forcing at one operating SNR (linear scale),
    per complex channel use."""
    S = beamformers.spec.extension
    (row,) = _block_rates(beamformers, channel, np.array([_snr_value(snr)]))
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
    return fit_dof(grid, _block_rates(beamformers, channel, np.array(_db_to_linear(grid))),
                   beamformers.spec.extension)


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
    log2(snr) over a dB grid: `baseline_rate_profile` at each grid point."""
    grid = validate_snr_grid(snr_grid_db)
    return fit_dof(grid, [baseline_rate_profile(channel, snr) for snr in _db_to_linear(grid)])
