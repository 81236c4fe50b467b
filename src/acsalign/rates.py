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
from .verify import receiver_stack

__all__ = _exports(__name__)

DEFAULT_SNR_GRID_DB = (60.0, 70.0, 80.0, 90.0, 100.0, 110.0)

NOISE_VAR_PER_REAL_DIM = 0.5

# A fitted slope further than this from the secant over the top two grid points
# was not fitted in the asymptotic regime: two thirds of the acceptance suite's
# +-0.03 slope band, so a drift that could carry a slope out of it is flagged.
FIT_GAP = 0.02


class RankDeficientReceiverError(Exception):
    """A receiver's effective columns leave no null direction for some stream."""

    def __init__(self, rx: int):
        self.rx = rx
        super().__init__(f"receiver {rx} is rank deficient: no zero-forcing direction exists")


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
    order: `(rx, (tx, column), unit combiner, gain on its own image)`.  Column j is
    copied to a contiguous vector first: on the strided view the solve and the
    dot product change last digits."""
    for rx in range(beamformers.spec.shape[0]):
        stack, _ = receiver_stack(beamformers, channel, rx)
        for j, key in enumerate(beamformers.spec.desired_streams(rx)):
            own = stack[:, j].copy()
            others = np.delete(stack, j, axis=1)
            coeffs, *_ = np.linalg.lstsq(others, own, rcond=None)
            w = own - others @ coeffs
            norm = float(np.linalg.norm(w))
            if norm < 1e-9:
                raise RankDeficientReceiverError(rx)
            w = w / norm
            yield rx, key, w, float(w @ own)


def zf_receive(beamformers: BeamformerSet, channel: ComplexChannelMatrix) -> dict[tuple[int, int], np.ndarray]:
    """Per-stream unit combiners, each orthogonal to every other effective column.

    The effective columns at a receiver are its desired stream images plus the
    deduplicated interference basis.  The combiner for a stream is the
    residual of its own image after projecting onto the span of all the
    others; its inner product with the own image is therefore positive.
    """
    return {key: w for _, key, w, _ in _zf_solve(beamformers, channel)}


@dataclass(frozen=True)
class RateReport:
    scheme: str
    snr: float
    extension: int
    per_receiver: tuple[float, ...]
    sum_rate: float

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "snr": self.snr,
            "extension": self.extension,
            "per_receiver": list(self.per_receiver),
            "sum_rate": self.sum_rate,
        }


def _vector(values, what: str) -> np.ndarray:
    """`values` as a float array, or ValueError naming its shape unless non-empty and 1-d."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-d sequence, got shape {array.shape}")
    return array


def _snr_values(snrs) -> np.ndarray:
    """`snrs` as a float array, or ValueError unless it is a non-empty 1-d
    sequence of positive finite values."""
    values = _vector(snrs, "snrs")
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
    if bad.size:
        raise ValueError(f"snr must be positive and finite, got {float(values[bad[0]])!r}")
    return values


def rate_reports(beamformers: BeamformerSet, channel: ComplexChannelMatrix, snrs) -> tuple[RateReport, ...]:
    """Achieved rates under zero forcing at each operating SNR (linear scale).

    Stream power is S*snr*share, the desired gain is the squared projection
    of the rotated column on the combiner times the link magnitude squared,
    and residual interference is exactly nulled, so SINR = 2 * power * gain.
    The combiners do not depend on the SNR, so one zero-forcing pass, after
    _snr_values, adds each stream's rates over the grid to its receiver's.
    """
    snrs = _snr_values(snrs)
    spec = beamformers.spec
    S = spec.extension
    per_rx = np.zeros((snrs.size, spec.shape[0]))
    with _overflow_guard(f"snr {float(snrs.max())!r}"):
        for rx, (t, _), _, gain in _zf_solve(beamformers, channel):
            share = 1.0 / len(spec.stream_rx[t])
            sinr = S * snrs * share * channel.magnitude[rx, t] ** 2 * gain ** 2 / NOISE_VAR_PER_REAL_DIM
            per_rx[:, rx] += 0.5 * np.log2(1.0 + sinr)
    return tuple(RateReport(spec.tag, float(snr), S, tuple(float(x) / S for x in row), float(row.sum()) / S)
                 for snr, row in zip(snrs, per_rx))


def sum_rate(beamformers: BeamformerSet, channel: ComplexChannelMatrix, snr: float) -> RateReport:
    """Achieved rates under zero forcing at one operating SNR (linear scale)."""
    return rate_reports(beamformers, channel, (snr,))[0]


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

    def to_dict(self) -> dict:
        return {
            "snr_grid_db": list(self.snr_grid_db),
            "sum_rates": list(self.sum_rates),
            "per_user_rates": [list(r) for r in self.per_user_rates],
            "slope": self.slope,
            "intercept": self.intercept,
            "rms_residual": self.rms_residual,
            "secant": self.secant,
        }


def validate_snr_grid(snr_grid_db) -> np.ndarray:
    """Check a dB grid is usable for slope regression and return it as an array.

    At least 4 strictly increasing points, all within [40, 140] dB: low enough
    to stay in floating range, high enough that the log(1+x) curvature has
    died out.
    """
    grid = _vector(snr_grid_db, "snr grid")
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


def fit_dof(snr_grid_db, sum_rates, per_user_rates) -> DofEstimate:
    """Least-squares line through sum rates against log2(snr); the slope is
    the DoF estimate.  The secant over the top two grid points comes along as
    a check on it.  `per_user_rates` holds, per grid point, the per-user rates
    whose sum is that point's sum rate; it is kept, not refitted.  The grid is
    taken as already validated."""
    grid_db = np.asarray(snr_grid_db, dtype=float)
    x = grid_db / 10.0 * np.log2(10.0)
    y = np.asarray(sum_rates)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    rms = float(np.sqrt(np.mean((fit - y) ** 2)))
    secant = float((y[-1] - y[-2]) / (x[-1] - x[-2]))
    return DofEstimate(tuple(float(g) for g in grid_db), tuple(float(r) for r in y),
                       tuple(tuple(float(r) for r in row) for row in per_user_rates),
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
    reports = rate_reports(beamformers, channel, _db_to_linear(grid))
    return fit_dof(grid, [r.sum_rate for r in reports], [r.per_receiver for r in reports])


def baseline_circsym(channel: ComplexChannelMatrix, powers) -> np.ndarray:
    """Per-user rates when everyone sends one circularly-symmetric stream per
    symbol and receivers treat interference as noise (unit noise power)."""
    if channel.num_rx != channel.num_tx:
        raise ValueError("the per-symbol baseline needs a square channel")
    p = np.asarray(powers, dtype=float)
    if p.shape != (channel.num_tx,):
        raise ValueError(f"expected {channel.num_tx} powers, got shape {p.shape}")
    if not np.all(np.isfinite(p) & (p >= 0)):
        raise ValueError("powers must be nonnegative and finite")
    g = channel.magnitude ** 2
    rates = np.empty(channel.num_rx)
    with _overflow_guard(f"powers {p.tolist()}"):
        for k in range(channel.num_rx):
            interference = float(g[k] @ p) - g[k, k] * p[k]
            rates[k] = np.log2(1.0 + g[k, k] * p[k] / (1.0 + interference))
    return rates


def baseline_rate_profile(channel: ComplexChannelMatrix, snr: float) -> np.ndarray:
    """Per-user rates of the better per-symbol baseline mode at this snr.

    Compares everybody-at-full-power against the best single user operating
    alone, and returns the winning mode's rate vector.  An snr that would
    overflow the lone user's rate overflows the full-power mode first.
    """
    _snr_values((snr,))
    k = channel.num_tx
    full = baseline_circsym(channel, np.full(k, snr))
    g = channel.magnitude ** 2
    best = int(np.argmax(np.diag(g)))
    single = np.zeros(k)
    single[best] = np.log2(1.0 + g[best, best] * snr)
    return single if single.sum() > full.sum() else full


def estimate_baseline_dof(channel: ComplexChannelMatrix, snr_grid_db=DEFAULT_SNR_GRID_DB) -> DofEstimate:
    grid = validate_snr_grid(snr_grid_db)
    profiles = [baseline_rate_profile(channel, snr) for snr in _db_to_linear(grid)]
    return fit_dof(grid, [float(p.sum()) for p in profiles], profiles)
