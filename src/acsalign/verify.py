"""Feasibility conditions, alignment residuals, and independence margins.

The checks here are the numerical counterparts of the almost-sure claims the
schemes rest on: cross-receiver phase sums staying away from multiples of pi,
constructed alignment equalities holding exactly, and stacked receive columns
keeping full rank.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import _exports
from .channel import (
    _CROSS_TERMS,
    TWO_PI,
    ComplexChannelMatrix,
    _signed_gain_ratio,
    _signed_phase_sum,
    implicated_receiver,
    lift,
    mod_distance,
)

if TYPE_CHECKING:  # pragma: no cover
    from .schemes import BeamformerSet

__all__ = _exports(__name__)

# A phase expression within this distance of a multiple of its modulus counts
# as hitting it; a gain ratio within this distance of 1 counts as 1.
PHASE_TOL = 1e-9
RATIO_TOL = 1e-9

# The thresholds of the rank verdict on a stack of unit-norm receive columns (see _verdict).
SV_INDEPENDENT = 1e-6
SV_DEPENDENT = 1e-10


class InfeasibleChannelError(Exception):
    """A channel fails the feasibility conditions of a scheme."""

    def __init__(self, scheme: str, failed: tuple[str, ...], detail: str = ""):
        self.scheme = scheme
        self.failed = tuple(failed)
        msg = f"channel infeasible for scheme {scheme!r}; failed conditions: {', '.join(failed)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegenerateAnglesError(ValueError):
    """Angles too close to a degenerate configuration for a closed-form solve."""


def _fields(report) -> dict:
    """A report dataclass's fields in declaration order, arrays as lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(report).items()}


@dataclass(frozen=True)
class ConditionRecord:
    """One evaluated condition: a phase sum against a modulus, optionally a ratio."""

    cid: str
    value: float
    modulus: float
    distance: float
    requires: str  # "nonzero": distance must exceed tolerance; "zero": must be within it
    satisfied: bool
    magnitude_ratio: float | None = None
    rx: int | None = None

    def to_dict(self) -> dict:
        fields = _fields(self)
        return {"id": fields.pop("cid"), **{k: v for k, v in fields.items() if v is not None}}


@dataclass(frozen=True)
class ConditionReport:
    kind: str
    records: tuple[ConditionRecord, ...]

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(r.cid for r in self.records if not r.satisfied)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "all_satisfied": not self.failed,
            "conditions": [r.to_dict() for r in self.records],
        }


def _require_shape(channel: ComplexChannelMatrix, shape: tuple[int, int], who: str) -> None:
    if channel.magnitude.shape != shape:
        raise ValueError(
            f"{who} needs a {shape[0]}x{shape[1]} channel (receivers x transmitters), "
            f"got {channel.num_rx}x{channel.num_tx}"
        )


class _Gate(NamedTuple):
    """One condition set: the (num_rx, num_tx) channel shape it reads and its
    conditions in report order.  A condition is (id, ((rx, tx), sign) phase
    terms summed in the order listed, implicated receiver or None, "zero" when
    the sum must hit a multiple of pi or "nonzero" when it must stay away).
    with_ratio marks the rank-one traps, where the signed product of the link
    gains is 1: the sum hits a multiple of 2pi and the gain ratio is 1.
    connected marks a scheme gate that also needs every link gain nonzero."""

    shape: tuple[int, int]
    conditions: tuple[tuple[str, tuple, int | None, str], ...]
    with_ratio: bool = False
    connected: bool = False


_CROSS = tuple(
    (cid, _CROSS_TERMS[k], implicated_receiver(k))
    for k, cid in enumerate(("rx1-a", "rx1-b", "rx2-a", "rx2-b", "rx3-a", "rx3-b"))
)

_GATES = {
    "phase-align": _Gate((3, 3), (
        ("closure", (((2, 1), +1), ((1, 0), +1), ((0, 2), +1), ((0, 1), -1), ((1, 2), -1), ((2, 0), -1)),
         None, "zero"),
        ("rx1-separation", (((1, 0), +1), ((1, 2), -1), ((0, 2), +1), ((0, 0), -1)), 0, "nonzero"),
        ("rx2-separation", (((1, 1), +1), ((0, 2), +1), ((0, 1), -1), ((1, 2), -1)), 1, "nonzero"),
        ("rx3-separation", (((2, 2), +1), ((1, 0), +1), ((1, 2), -1), ((2, 0), -1)), 2, "nonzero"),
    )),
    "acs-ic3": _Gate((3, 3), tuple((cid, terms, rx, "nonzero") for cid, terms, rx in _CROSS), connected=True),
    "singularity": _Gate((3, 3), tuple((cid, terms, rx, "zero") for cid, terms, rx in _CROSS), with_ratio=True),
    "x-channel": _Gate((2, 2), (
        ("cross-phase", (((0, 0), +1), ((1, 1), +1), ((1, 0), -1), ((0, 1), -1)), None, "nonzero"),
    )),
    "uplinks": _Gate((2, 4), (
        ("cell1-cross-phase", (((0, 0), +1), ((1, 1), +1), ((1, 0), -1), ((0, 1), -1)), 0, "nonzero"),
        ("cell2-cross-phase", (((1, 2), +1), ((0, 3), +1), ((0, 2), -1), ((1, 3), -1)), 1, "nonzero"),
    )),
}

CONDITION_SETS = tuple(_GATES)


def check_conditions(channel: ComplexChannelMatrix, which: str) -> ConditionReport:
    """Evaluate a named condition set on a channel.

    "phase-align"  closure sum must hit 0 mod pi, three separation sums must not
    "acs-ic3"      all six cross sums must stay away from 0 mod pi
    "singularity"  the six known rank-one traps: phase sum 0 mod 2pi AND gain ratio 1
                   (a ratio left undefined by a zero link gain is reported without one)
    "x-channel"    the 2x2 cross-phase sum must stay away from 0 mod pi
    "uplinks"      both per-receiver cross-phase sums on a 2x4 channel

    Each set is evaluated once per channel and its report kept with the channel,
    so the sampler's check and the builder's gate read one evaluation.
    """
    if which not in _GATES:
        raise ValueError(f"unknown condition set {which!r}; expected one of {CONDITION_SETS}")
    gate = _GATES[which]
    _require_shape(channel, gate.shape, f"{which} condition set")
    return channel._derived(("conditions", which), lambda: _evaluate(channel, which, gate))


def _evaluate(channel: ComplexChannelMatrix, which: str, gate: _Gate) -> ConditionReport:
    modulus = TWO_PI if gate.with_ratio else np.pi
    records = []
    for cid, terms, rx, requires in gate.conditions:
        value = _signed_phase_sum(channel, terms)
        dist = mod_distance(value, modulus)
        hit = dist <= PHASE_TOL
        ratio = None
        if gate.with_ratio:
            ratio = _signed_gain_ratio(channel, terms)
            hit = hit and ratio is not None and abs(ratio - 1.0) <= RATIO_TOL
        satisfied = hit if requires == "zero" else not hit
        records.append(ConditionRecord(cid, value, modulus, dist, requires, satisfied, ratio, rx))
    return ConditionReport(which, tuple(records))


def _links(beamformers: "BeamformerSet", channel: ComplexChannelMatrix, rx: int) -> tuple[np.ndarray, ...]:
    """Receiver rx's link rotations, once the channel is checked against the set."""
    _require_shape(channel, beamformers.spec.shape, beamformers.spec.tag)
    return channel.link_rotations(beamformers.spec.extension)[rx]


def _stack(column, links: tuple[np.ndarray, ...], keys) -> np.ndarray:
    """The receive images of the (tx, c) streams `keys` as the columns of one
    C-contiguous matrix.  column(tx, c) may carry a leading candidate axis,
    which the result then carries too.  Every image is links[tx] times the
    column, one matvec each, all made by a single stacked matmul: an image has
    the same bits with or without the candidate axis, so candidate scoring and
    every later reader of the built set agree."""
    rotations = np.stack([links[t] for t, _ in keys])
    columns = np.stack([column(t, c) for t, c in keys], axis=-2)
    images = np.matmul(rotations, columns[..., None])[..., 0]
    return np.ascontiguousarray(np.swapaxes(images, -1, -2))


def receiver_stack(
    beamformers: "BeamformerSet", channel: ComplexChannelMatrix, rx: int
) -> tuple[np.ndarray, int]:
    """Receiver rx's desired images, then its deduplicated interference basis,
    as columns of one matrix; also how many columns are desired."""
    desired, keys = beamformers.spec._layout[rx]
    return _stack(beamformers.column, _links(beamformers, channel, rx), keys), len(desired)


def alignment_residual(beamformers: "BeamformerSet", channel: ComplexChannelMatrix) -> float:
    """Worst Euclidean mismatch over the scheme's alignment coincidences.

    Each recorded coincidence says two receive images are equal (or equal up
    to sign where only the line is pinned down).  Freshly built sets sit at
    rounding level; a perturbed column shows up at the perturbation scale.
    """
    worst = 0.0
    for pair in beamformers.spec.alignments:
        links = _links(beamformers, channel, pair.rx)
        left, right = _stack(beamformers.column, links, (pair.kept, pair.dropped)).T
        d = float(np.linalg.norm(left - right))
        if pair.up_to_sign:
            d = min(d, float(np.linalg.norm(left + right)))
        worst = max(worst, d)
    return worst


@dataclass(frozen=True)
class ReceiverIndependence:
    rx: int
    rows: int
    cols: int
    singular_values: np.ndarray
    min_principal_angle: float | None
    status: str  # "independent" | "dependent" | "indeterminate"

    def to_dict(self) -> dict:
        return _fields(self)


@dataclass(frozen=True)
class IndependenceReport:
    scheme: str
    receivers: tuple[ReceiverIndependence, ...]

    @property
    def all_independent(self) -> bool:
        return all(r.status == "independent" for r in self.receivers)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "all_independent": self.all_independent,
            "receivers": [r.to_dict() for r in self.receivers],
        }


def _principal_angle(desired: np.ndarray, interference: np.ndarray) -> float | None:
    if desired.size == 0 or interference.size == 0:
        return None
    qa, _ = np.linalg.qr(desired)
    qb, _ = np.linalg.qr(interference)
    svals = np.linalg.svd(qa.T @ qb, compute_uv=False)
    cos_max = float(np.clip(svals.max(initial=0.0), -1.0, 1.0))
    return float(np.arccos(cos_max))


def _verdict(smallest: float) -> str:
    """The rank verdict on a receiver's stack from its smallest singular value: the
    package's one comparison with SV_INDEPENDENT and SV_DEPENDENT."""
    if smallest > SV_INDEPENDENT:
        return "independent"
    return "dependent" if smallest < SV_DEPENDENT else "indeterminate"


def _receivers(beamformers: "BeamformerSet", channel: ComplexChannelMatrix):
    """Per receiver: (rx, stack, number of desired columns, singular values, verdict)."""
    for rx in range(beamformers.spec.shape[0]):
        stack, num_desired = receiver_stack(beamformers, channel, rx)
        svals = np.linalg.svd(stack, compute_uv=False)
        yield rx, stack, num_desired, svals, _verdict(float(svals.min()))


def independence_margin(beamformers: "BeamformerSet", channel: ComplexChannelMatrix) -> IndependenceReport:
    """Stack each receiver's desired images with its deduplicated interference
    basis and judge linear independence by the smallest singular value."""
    return IndependenceReport(beamformers.spec.tag, tuple(
        ReceiverIndependence(rx, *stack.shape, svals, _principal_angle(stack[:, :d], stack[:, d:]), verdict)
        for rx, stack, d, svals, verdict in _receivers(beamformers, channel)))


def solve_phasor_pair(alpha: float, beta: float) -> tuple[float, float]:
    """Real coefficients (c1, c2) with c1*exp(j*alpha) + c2*exp(j*beta) = 1.

    Splitting into real and imaginary parts gives a 2x2 linear system whose
    determinant is sin(beta - alpha); the solve is degenerate exactly when
    the two phasors are collinear.  A non-finite angle raises ValueError.
    """
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValueError(f"phasor angles must be finite, got alpha={float(alpha)!r}, beta={float(beta)!r}")
    det = np.sin(beta - alpha)
    if abs(det) <= PHASE_TOL:
        raise DegenerateAnglesError(
            f"phasor pair is collinear: |sin(alpha - beta)| = {abs(det):.3e}"
        )
    c1 = np.sin(beta) / det
    c2 = -np.sin(alpha) / det
    return float(c1), float(c2)


@dataclass(frozen=True)
class ContainmentDemo:
    """Outcome of the double-alignment containment construction.

    A transmitter-1 column aligned into the interference spans at both other
    receivers is trapped: its own-receiver image lies inside the interference
    span there too, with coefficients scaled by the phasor-pair solution.
    """

    extension: int
    residual: float
    c1: float
    c2: float
    rx2_coeffs: np.ndarray   # combination weights used at receiver 2 (over tx-3 images)
    rx3_coeffs: np.ndarray   # combination weights used at receiver 3 (over tx-2 images)
    own_rx_tx3_coeffs: np.ndarray  # c1 * rx2_coeffs: weights of tx-3 images at receiver 1
    own_rx_tx2_coeffs: np.ndarray  # c2 * rx3_coeffs: weights of tx-2 images at receiver 1

    def to_dict(self) -> dict:
        return _fields(self)


def demonstrate_containment(channel: ComplexChannelMatrix, seed: int) -> ContainmentDemo:
    """Build a transmitter-1 column aligned at receivers 2 and 3 and show its
    receiver-1 image falls inside the interference span there.  The
    construction runs over S = 3 slots with two aligned streams from each of
    transmitters 2 and 3.

    Requires the cyclic phase sum around the interference triangle, the
    phase-align closure sum, to stay away from multiples of pi.  Channels
    where that sum vanishes are exactly the ones the single-symbol
    phase-alignment scheme needs, and there the containment genuinely fails.
    """
    _require_shape(channel, (3, 3), "containment demo")
    if "closure" not in check_conditions(channel, "phase-align").failed:
        raise DegenerateAnglesError(
            "cyclic phase sum sits on a multiple of pi; the containment construction degenerates"
        )
    p = channel.phase
    alpha = _signed_phase_sum(channel, (((0, 2), +1), ((1, 2), -1), ((1, 0), +1), ((0, 0), -1)))
    beta = _signed_phase_sum(channel, (((0, 1), +1), ((2, 1), -1), ((2, 0), +1), ((0, 0), -1)))

    rng = np.random.default_rng(seed)
    S = 3

    def complex_block(cols: int) -> np.ndarray:
        z = (rng.standard_normal((S, cols)) + 1j * rng.standard_normal((S, cols))) / np.sqrt(2.0)
        return z / np.linalg.norm(z, axis=0, keepdims=True)

    v3 = complex_block(2)
    a = rng.standard_normal(2)
    # Alignment at receiver 2 defines the column; alignment at receiver 3 is
    # then arranged by solving for the first tx-2 basis vector.
    v1 = np.exp(1j * (p[1, 2] - p[1, 0])) * (v3 @ a)
    b = np.concatenate(([1.0], rng.standard_normal(1)))
    v2 = np.empty((S, 2), dtype=complex)
    v2[:, 1:] = complex_block(1)
    v2[:, 0] = np.exp(1j * (p[2, 0] - p[2, 1])) * v1 - v2[:, 1:] @ b[1:]

    c1, c2 = solve_phasor_pair(alpha, beta)
    a_prime = c1 * a
    b_prime = c2 * b

    into_rx1 = channel.link_rotations(S)[0]
    left = into_rx1[0] @ lift(v1)
    right = np.zeros(2 * S)
    for s in range(2):
        right += a_prime[s] * (into_rx1[2] @ lift(v3[:, s]))
        right += b_prime[s] * (into_rx1[1] @ lift(v2[:, s]))
    residual = float(np.linalg.norm(left - right))
    return ContainmentDemo(S, residual, c1, c2, a, b, a_prime, b_prime)
