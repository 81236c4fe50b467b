"""Zero-forcing reception, achievable rates, and slope-based DoF estimates.

Conventions pinned here: each transmitter spends S*snr of power per S-slot
block, split equally over its streams; noise carries variance 1/2 per real
dimension; stream rates are 0.5*log2(1 + SINR) per block and sum rates are
reported per complex channel use (divide by S).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ComplexChannelMatrix
from .schemes import BeamformerSet
from .verify import receiver_stack

__all__ = [
    "DEFAULT_SNR_GRID_DB",
    "RankDeficientReceiverError",
    "StreamRate",
    "RateReport",
    "DofEstimate",
    "zf_receive",
    "rate_reports",
    "sum_rate",
    "estimate_dof",
    "fit_dof",
    "validate_snr_grid",
    "baseline_circsym",
    "baseline_rate_profile",
    "baseline_best_sum_rate",
    "estimate_baseline_dof",
]

DEFAULT_SNR_GRID_DB = (60.0, 70.0, 80.0, 90.0, 100.0, 110.0)

NOISE_VAR_PER_REAL_DIM = 0.5


class RankDeficientReceiverError(Exception):
    """A receiver's effective columns leave no null direction for some stream."""

    def __init__(self, rx: int):
        self.rx = rx
        super().__init__(f"receiver {rx} is rank deficient: no zero-forcing direction exists")


def _zf_solve(
    beamformers: BeamformerSet, channel: ComplexChannelMatrix
) -> dict[tuple[int, int], tuple[np.ndarray, float]]:
    """Each desired stream's unit combiner and its gain on its own image, from
    receiver_stack's columns.  Column j is copied to a contiguous vector first:
    on the strided view the solve and the dot product change last digits."""
    solved = {}
    for rx in range(beamformers.num_rx):
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
            solved[key] = (w, float(w @ own))
    return solved


def zf_receive(beamformers: BeamformerSet, channel: ComplexChannelMatrix) -> dict[tuple[int, int], np.ndarray]:
    """Per-stream unit combiners, each orthogonal to every other effective column.

    The effective columns at a receiver are its desired stream images plus the
    deduplicated interference basis.  The combiner for a stream is the
    residual of its own image after projecting onto the span of all the
    others; its inner product with the own image is therefore positive.
    """
    return {key: w for key, (w, _) in _zf_solve(beamformers, channel).items()}


@dataclass(frozen=True)
class StreamRate:
    tx: int
    column: int
    rx: int
    zf_gain: float
    sinr: float
    rate_per_block: float


@dataclass(frozen=True)
class RateReport:
    scheme: str
    snr: float
    extension: int
    streams: tuple[StreamRate, ...]
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


def rate_reports(beamformers: BeamformerSet, channel: ComplexChannelMatrix, snrs) -> tuple[RateReport, ...]:
    """Achieved rates under zero forcing at each operating SNR (linear scale).

    Stream power is S*snr*share, the desired gain is the squared projection
    of the rotated column on the combiner times the link magnitude squared,
    and residual interference is exactly nulled, so SINR = 2 * power * gain.
    The combiners do not depend on the SNR, so zero forcing is solved once
    for the whole grid.
    """
    snrs = np.asarray(snrs, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(snrs) & (snrs > 0)))
    if bad.size:
        raise ValueError(f"snr must be positive and finite, got {float(snrs[bad[0]])!r}")
    solved = _zf_solve(beamformers, channel)
    spec = beamformers.spec
    S = spec.extension
    streams = spec.streams()
    gains = [solved[(t, c)][1] for t, c, _ in streams]
    share = np.array([1.0 / len(spec.stream_rx[t]) for t, _, _ in streams])
    link = np.array([channel.magnitude[rx, t] ** 2 for t, _, rx in streams])
    sinr = S * snrs[:, None] * share * link * np.array([g ** 2 for g in gains]) / NOISE_VAR_PER_REAL_DIM
    rate = 0.5 * np.log2(1.0 + sinr)
    per_rx_block = np.zeros((snrs.size, beamformers.num_rx))
    for k, (_, _, rx) in enumerate(streams):
        per_rx_block[:, rx] += rate[:, k]
    return tuple(
        RateReport(
            spec.tag, float(snr), S,
            tuple(StreamRate(t, c, rx, g, float(sinr[i, k]), float(rate[i, k]))
                  for k, ((t, c, rx), g) in enumerate(zip(streams, gains))),
            tuple(float(x) / S for x in per_rx_block[i]),
            float(per_rx_block[i].sum()) / S,
        )
        for i, snr in enumerate(snrs)
    )


def sum_rate(beamformers: BeamformerSet, channel: ComplexChannelMatrix, snr: float) -> RateReport:
    """Achieved rates under zero forcing at one operating SNR (linear scale)."""
    return rate_reports(beamformers, channel, (snr,))[0]


@dataclass(frozen=True)
class DofEstimate:
    snr_grid_db: tuple[float, ...]
    sum_rates: tuple[float, ...]
    slope: float
    intercept: float
    rms_residual: float

    def to_dict(self) -> dict:
        return {
            "snr_grid_db": list(self.snr_grid_db),
            "sum_rates": list(self.sum_rates),
            "slope": self.slope,
            "intercept": self.intercept,
            "rms_residual": self.rms_residual,
        }


def validate_snr_grid(snr_grid_db) -> np.ndarray:
    """Check a dB grid is usable for slope regression and return it as an array.

    At least 4 strictly increasing points, all within [40, 140] dB: low enough
    to stay in floating range, high enough that the log(1+x) curvature has
    died out.
    """
    grid = np.asarray(snr_grid_db, dtype=float)
    if grid.ndim != 1 or grid.size < 4:
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


def fit_dof(snr_grid_db, sum_rates) -> DofEstimate:
    """Least-squares line through sum rates against log2(snr); the slope is
    the DoF estimate.  The grid is taken as already validated."""
    grid_db = np.asarray(snr_grid_db, dtype=float)
    x = grid_db / 10.0 * np.log2(10.0)
    y = np.asarray(sum_rates)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    rms = float(np.sqrt(np.mean((fit - y) ** 2)))
    return DofEstimate(tuple(float(g) for g in grid_db), tuple(float(r) for r in y),
                       float(slope), float(intercept), rms)


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
    return fit_dof(grid, [r.sum_rate for r in reports])


def baseline_circsym(channel: ComplexChannelMatrix, powers) -> np.ndarray:
    """Per-user rates when everyone sends one circularly-symmetric stream per
    symbol and receivers treat interference as noise (unit noise power)."""
    if channel.num_rx != channel.num_tx:
        raise ValueError("the per-symbol baseline needs a square channel")
    p = np.asarray(powers, dtype=float)
    if p.shape != (channel.num_tx,):
        raise ValueError(f"expected {channel.num_tx} powers, got shape {p.shape}")
    if np.any(p < 0):
        raise ValueError("powers must be nonnegative")
    g = channel.magnitude ** 2
    rates = np.empty(channel.num_rx)
    for k in range(channel.num_rx):
        interference = float(g[k] @ p) - g[k, k] * p[k]
        rates[k] = np.log2(1.0 + g[k, k] * p[k] / (1.0 + interference))
    return rates


def baseline_rate_profile(channel: ComplexChannelMatrix, snr: float) -> np.ndarray:
    """Per-user rates of the better per-symbol baseline mode at this snr.

    Compares everybody-at-full-power against the best single user operating
    alone, and returns the winning mode's rate vector.
    """
    if snr <= 0:
        raise ValueError("snr must be positive")
    k = channel.num_tx
    full = baseline_circsym(channel, np.full(k, snr))
    g = channel.magnitude ** 2
    best = int(np.argmax(np.diag(g)))
    single = np.zeros(k)
    single[best] = np.log2(1.0 + g[best, best] * snr)
    return single if single.sum() > full.sum() else full


def baseline_best_sum_rate(channel: ComplexChannelMatrix, snr: float) -> float:
    """Best per-symbol baseline sum rate among full power and single-user modes."""
    return float(baseline_rate_profile(channel, snr).sum())


def estimate_baseline_dof(channel: ComplexChannelMatrix, snr_grid_db=DEFAULT_SNR_GRID_DB) -> DofEstimate:
    grid = validate_snr_grid(snr_grid_db)
    rates = [baseline_best_sum_rate(channel, snr) for snr in _db_to_linear(grid)]
    return fit_dof(grid, rates)
