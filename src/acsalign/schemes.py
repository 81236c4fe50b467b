"""Beamformer constructions for the alignment schemes.

Every scheme follows the same recipe: pick a few free columns, derive the
rest through link rotations so that interfering streams land on top of each
other at the receivers they bother, and record which receive images coincide
so later stages can deduplicate the interference basis.  One SchemeSpec entry
per scheme holds that recipe as data; its alignment pairs are the only
description of the geometry, read both to derive the columns and to verify
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby

import numpy as np

from .channel import ComplexChannelMatrix, extend_rotation, sample_channel
from .verify import _GATES, SV_INDEPENDENT, InfeasibleChannelError, _require_shape, _stack, check_conditions

__all__ = [
    "AlignmentPair",
    "SchemeDescriptor",
    "SchemeSpec",
    "BeamformerSet",
    "build_phase_alignment",
    "build_acs_ic3",
    "build_x_channel",
    "build_cognitive_x",
    "build_uplinks",
    "build_scheme",
    "sample_feasible_channel",
    "scheme_spec",
    "CANDIDATE_DRAWS",
    "GENERIC_PHASE_MARGIN",
    "SCHEMES",
    "SCHEME_TAGS",
]

# How many free-column draws the randomized builders try before keeping the
# best conditioned one.
CANDIDATE_DRAWS = 8

# Phase distance (radians) to the degenerate set below which a random draw is
# rejected by sample_feasible_channel.  Feasibility is an open condition, so
# arbitrarily small margins are still feasible but condition the construction
# badly; the receive-side singular values shrink roughly with this distance.
GENERIC_PHASE_MARGIN = 1e-2


@dataclass(frozen=True)
class AlignmentPair:
    """Two streams whose receive images coincide at one receiver.

    `dropped` is the derived column, `kept` the one retained in that
    receiver's interference basis.  `up_to_sign` marks coincidences where the
    construction only pins down the line, not the orientation; such a pair
    follows from the others and derives no column.
    """

    rx: int
    kept: tuple[int, int]
    dropped: tuple[int, int]
    up_to_sign: bool = False


@dataclass(frozen=True)
class SchemeSpec:
    """Everything the package knows about one scheme.

    feasibility names the condition set that gates building and sampling, and
    fixes the channel shape; stream_rx[t][c] is the receiver of transmitter t's
    column c.  A randomized scheme draws each free block (tx, columns) as
    orthonormal columns, in order from one rng; a single-symbol scheme lists
    its ((tx, column), entries) as fixed_columns instead.  Every other column
    is derived from its alignment pair.  removed_streams lists (rx, tx,
    column) triples whose interference a receiver cancels through side
    information.  An entry without streams (the per-symbol baseline) only
    fixes the channel shape and sampler of its sweep.
    """

    tag: str
    feasibility: str
    extension: int = 1
    stream_rx: tuple[tuple[int, ...], ...] = ()
    free_blocks: tuple[tuple[int, tuple[int, ...]], ...] = ()
    fixed_columns: tuple[tuple[tuple[int, int], tuple[float, ...]], ...] = ()
    alignments: tuple[AlignmentPair, ...] = ()
    removed_streams: frozenset[tuple[int, int, int]] = frozenset()
    needs_connected: bool = False    # the gate also wants every link gain nonzero

    @property
    def shape(self) -> tuple[int, int]:
        """(num_rx, num_tx): the channel shape the gate reads."""
        return _GATES[self.feasibility].shape

    @property
    def sampleable(self) -> bool:
        """Whether random draws can pass the gate: not if it has a "zero"
        condition, which a random draw misses almost surely."""
        return all(requires == "nonzero" for *_, requires in _GATES[self.feasibility].conditions)

    def gate_failures(self, channel: ComplexChannelMatrix) -> tuple[str, ...]:
        """The feasibility conditions `channel` fails for this scheme; a
        disconnected channel fails on connectivity alone."""
        if self.needs_connected and not channel.fully_connected:
            return ("fully-connected",)
        return check_conditions(channel, self.feasibility).failed

    def sample(self, seed: int) -> ComplexChannelMatrix:
        """The random channel of one sweep trial.

        Open gates get a draw redrawn off the degenerate set; a closure-gated
        scheme gets the plain draw, which its gate then rejects.
        """
        if self.sampleable:
            return sample_feasible_channel(self.tag, seed)
        num_rx, num_tx = self.shape
        return sample_channel(seed, num_tx, num_rx)

    def streams(self) -> tuple[tuple[int, int, int], ...]:
        """All (tx, column, rx) stream triples in transmitter-major order."""
        return tuple((t, c, rx) for t, rxs in enumerate(self.stream_rx) for c, rx in enumerate(rxs))

    @cached_property
    def _layout(self) -> tuple[tuple[tuple, tuple], ...]:
        """Per receiver, its desired (tx, column) pairs and its stack keys: the
        desired pairs, then the interference basis.  Worked out once per spec."""
        layout = []
        for rx in range(self.shape[0]):
            skip = {p.dropped for p in self.alignments if p.rx == rx}
            skip |= {(t, c) for r, t, c in self.removed_streams if r == rx}
            desired = tuple((t, c) for t, c, r in self.streams() if r == rx)
            basis = tuple((t, c) for t, c, r in self.streams() if r != rx and (t, c) not in skip)
            layout.append((desired, desired + basis))
        return tuple(layout)

    def desired_streams(self, rx: int) -> tuple[tuple[int, int], ...]:
        return self._layout[rx][0]

    def interference_basis(self, rx: int) -> tuple[tuple[int, int], ...]:
        """Interfering (tx, column) pairs at rx, deduplicated and genie-filtered.

        Aligned duplicates land on a kept column's image, so dropping them
        loses nothing; removed_streams never enter at all.
        """
        desired, keys = self._layout[rx]
        return keys[len(desired):]


@dataclass(frozen=True)
class SchemeDescriptor:
    scheme: str
    extension: int
    streams_per_tx: tuple[int, ...]
    dof: Fraction
    feasibility: str

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "extension": self.extension,
            "streams_per_tx": list(self.streams_per_tx),
            "dof": str(self.dof),
            "feasibility": self.feasibility,
        }


@dataclass(frozen=True, eq=False)
class BeamformerSet:
    """Unit-norm transmit columns for every stream of a scheme.

    spec is the scheme's table entry and fixes the stream layout: matrices[t]
    is (2S, d_t) with one column per entry of spec.stream_rx[t].  Each
    transmitter splits its block power budget (S times the operating SNR)
    evenly over its streams.  Two sets are equal when their specs are and
    their matrices hold the same entries.
    """

    spec: SchemeSpec
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        spec, rows, mats = self.spec, 2 * self.spec.extension, []
        if len(self.matrices) != len(spec.stream_rx):
            raise ValueError(f"{spec.tag} has {len(spec.stream_rx)} transmitters, not {len(self.matrices)}")
        for t, (m, rxs) in enumerate(zip(self.matrices, spec.stream_rx)):
            m = np.array(m, dtype=float)
            if m.shape != (rows, len(rxs)):
                raise ValueError(f"transmitter {t}: expected a {rows}x{len(rxs)} column matrix, got {m.shape}")
            norms = np.linalg.norm(m, axis=0)
            if not np.allclose(norms, 1.0, atol=1e-12):
                raise ValueError(f"transmitter {t}: columns must be unit norm")
            if np.linalg.svd(m, compute_uv=False).min() <= 1e-9:
                raise ValueError(f"transmitter {t}: columns are linearly dependent")
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "matrices", tuple(mats))

    def __eq__(self, other):
        if not isinstance(other, BeamformerSet):
            return NotImplemented
        return self.spec == other.spec and all(map(np.array_equal, self.matrices, other.matrices))

    def __hash__(self):
        # Python hashes -0.0 like 0.0, so sets with equal entries hash equal.
        return hash((self.spec, *(tuple(m.ravel().tolist()) for m in self.matrices)))

    @property
    def num_tx(self) -> int:
        return len(self.matrices)

    @property
    def num_rx(self) -> int:
        return self.spec.shape[0]

    @property
    def streams_per_tx(self) -> tuple[int, ...]:
        return tuple(m.shape[1] for m in self.matrices)

    @property
    def total_streams(self) -> int:
        return sum(self.streams_per_tx)

    @property
    def descriptor(self) -> SchemeDescriptor:
        return SchemeDescriptor(
            self.spec.tag,
            self.spec.extension,
            self.streams_per_tx,
            Fraction(self.total_streams, 2 * self.spec.extension),
            self.spec.feasibility,
        )

    def column(self, tx: int, col: int) -> np.ndarray:
        return self.matrices[tx][:, col]


def _orthonormal_columns(rng: np.random.Generator, dim: int, cols: int) -> np.ndarray:
    a = rng.standard_normal((dim, cols))
    q, r = np.linalg.qr(a)
    # Fix the QR sign convention so the draw is reproducible at the bit level.
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _derivations(spec: SchemeSpec, phase: np.ndarray) -> list[tuple[np.ndarray, list[AlignmentPair]]]:
    """Each derivation rotation p[rx, kept_tx] - p[rx, dropped_tx], built once,
    with the run of consecutive alignment pairs that shares it."""
    pairs = (pair for pair in spec.alignments if not pair.up_to_sign)
    return [
        (extend_rotation(phase[rx, ktx] - phase[rx, dtx], spec.extension).matrix, list(group))
        for (rx, ktx, dtx), group in groupby(pairs, key=lambda p: (p.rx, p.kept[0], p.dropped[0]))
    ]


def _derive_columns(derivations: list[tuple[np.ndarray, list[AlignmentPair]]], columns: dict) -> None:
    """Fill in every dropped column of `columns` by rotating its kept partner
    onto the same receive image.  A run of pairs goes through a single matmul
    and a lone pair through a matvec: the built bits, and with them every
    sweep file, depend on that grouping."""
    for rot, group in derivations:
        if len(group) == 1:
            columns[group[0].dropped] = rot @ columns[group[0].kept]
            continue
        block = rot @ np.column_stack([columns[p.kept] for p in group])
        for k, pair in enumerate(group):
            columns[pair.dropped] = block[:, k]


def _build(
    spec: SchemeSpec,
    channel: ComplexChannelMatrix,
    seed: int = 0,
    check: bool = True,
    draws: int = CANDIDATE_DRAWS,
) -> BeamformerSet:
    """Build a scheme from its spec; `check=False` skips the feasibility and
    conditioning gates, to probe what happens on channels that violate them.

    A spec with fixed columns is built once.  Otherwise `draws` candidates
    draw the free blocks from one sequential rng and the best conditioned is
    kept.  The score is the smallest singular value of any receiver's stacked
    desired and interference images; a channel so close to the degenerate set
    that the best score does not clear SV_INDEPENDENT fails the gate.
    Candidates are scored as raw columns and only the winner becomes a
    (validated) BeamformerSet.  The result is deterministic in (channel,
    seed) and the first candidate reproduces a single plain draw.
    """
    if not spec.stream_rx:
        raise ValueError(f"{spec.tag!r} sends no beamformed streams; only its rates can be swept")
    _require_shape(channel, spec.shape, spec.tag)
    failed = spec.gate_failures(channel) if check else ()
    if failed:
        raise InfeasibleChannelError(spec.tag, failed)
    if draws < 1:
        raise ValueError("need at least one candidate draw")
    derivations = _derivations(spec, channel.phase)
    links = channel.link_rotations(spec.extension)
    rng = np.random.default_rng(seed)
    best = None
    best_score = -np.inf
    for _ in range(draws if spec.free_blocks else 1):
        columns = {key: np.array(col) for key, col in spec.fixed_columns}
        for tx, cols in spec.free_blocks:
            block = _orthonormal_columns(rng, 2 * spec.extension, len(cols))
            for k, c in enumerate(cols):
                columns[(tx, c)] = block[:, k]
        _derive_columns(derivations, columns)
        score = min(
            np.linalg.svd(_stack(lambda t, c: columns[t, c], links[rx], keys), compute_uv=False).min()
            for rx, (_, keys) in enumerate(spec._layout)
        )
        if score > best_score:
            best, best_score = columns, score
    if check and best_score <= SV_INDEPENDENT:
        raise InfeasibleChannelError(
            spec.tag, ("conditioning",),
            f"smallest receive singular value {best_score:.3g} <= {SV_INDEPENDENT:g}",
        )
    return BeamformerSet(spec, tuple(
        np.column_stack([best[t, c] for c in range(len(rxs))]) for t, rxs in enumerate(spec.stream_rx)
    ))


SCHEMES: dict[str, SchemeSpec] = {spec.tag: spec for spec in (
    # One stream per user in one slot (3/2).  The closure condition makes the
    # product of rotations around the interference triangle +/-identity, so
    # every unit vector is an eigenvector of the loop rotation: a fixed one
    # and two chained link rotations align both interferers at every receiver.
    SchemeSpec(
        "phase-align", "phase-align",
        stream_rx=((0,), (1,), (2,)),
        fixed_columns=(((0, 0), (1.0, 0.0)),),
        alignments=(
            AlignmentPair(rx=1, kept=(0, 0), dropped=(2, 0)),
            AlignmentPair(rx=0, kept=(2, 0), dropped=(1, 0)),
            # The third coincidence follows from closure, which only fixes the line.
            AlignmentPair(rx=2, kept=(0, 0), dropped=(1, 0), up_to_sign=True),
        ),
    ),
    # Four streams per user over five slots (12/10): each transmitter draws two
    # columns and copies one free column of each other transmitter, so the
    # eight interfering streams at every receiver occupy six directions.
    SchemeSpec(
        "acs-ic3", "acs-ic3", extension=5,
        stream_rx=((0,) * 4, (1,) * 4, (2,) * 4),
        free_blocks=((0, (0, 1)), (1, (0, 1)), (2, (0, 1))),
        alignments=(
            AlignmentPair(rx=0, kept=(2, 0), dropped=(1, 2)),
            AlignmentPair(rx=0, kept=(1, 1), dropped=(2, 3)),
            AlignmentPair(rx=1, kept=(0, 0), dropped=(2, 2)),
            AlignmentPair(rx=1, kept=(2, 1), dropped=(0, 3)),
            AlignmentPair(rx=2, kept=(1, 0), dropped=(0, 2)),
            AlignmentPair(rx=2, kept=(0, 1), dropped=(1, 3)),
        ),
        needs_connected=True,
    ),
    # Crossed messages over three slots (8/6): transmitter 2's block for each
    # receiver copies transmitter 1's, coinciding at the other receiver.
    SchemeSpec(
        "x-channel", "x-channel", extension=3,
        stream_rx=((0, 0, 1, 1), (0, 0, 1, 1)),
        free_blocks=((0, (0, 1)), (0, (2, 3))),
        alignments=(
            AlignmentPair(rx=1, kept=(0, 0), dropped=(1, 0)),
            AlignmentPair(rx=1, kept=(0, 1), dropped=(1, 1)),
            AlignmentPair(rx=0, kept=(0, 2), dropped=(1, 2)),
            AlignmentPair(rx=0, kept=(0, 3), dropped=(1, 3)),
        ),
    ),
    # Three streams in two real dimensions with one message known at receiver
    # 2 (3/2).  The cross streams share one line at receiver 1, the direct
    # stream goes a quarter turn off it, and receiver 2 cancels that stream
    # with its side information.  The gate is the 2x2 cross-phase one: the two
    # cross streams separate at receiver 2 under the same sum.
    SchemeSpec(
        "cognitive-x", "x-channel",
        stream_rx=((0, 1), (1,)),
        fixed_columns=(((0, 0), (np.cos(np.pi / 2), np.sin(np.pi / 2))), ((0, 1), (1.0, 0.0))),
        alignments=(AlignmentPair(rx=0, kept=(0, 1), dropped=(1, 0)),),
        removed_streams=frozenset({(1, 0, 0)}),
    ),
    # Two interfering two-user uplinks over three slots (8/6): within each
    # cell the second transmitter copies the first, coinciding at the other
    # cell's receiver.
    SchemeSpec(
        "uplinks", "uplinks", extension=3,
        stream_rx=((0, 0), (0, 0), (1, 1), (1, 1)),
        free_blocks=((0, (0, 1)), (2, (0, 1))),
        alignments=(
            AlignmentPair(rx=1, kept=(0, 0), dropped=(1, 0)),
            AlignmentPair(rx=1, kept=(0, 1), dropped=(1, 1)),
            AlignmentPair(rx=0, kept=(2, 0), dropped=(3, 0)),
            AlignmentPair(rx=0, kept=(2, 1), dropped=(3, 1)),
        ),
    ),
    # The per-symbol baseline sends no beamformed streams; it is swept on the
    # channels the three-user scheme draws.
    SchemeSpec("baseline", "acs-ic3"),
)}

# Tags that build beamformers, in table order.
SCHEME_TAGS = tuple(tag for tag, spec in SCHEMES.items() if spec.stream_rx)


def scheme_spec(tag: str) -> SchemeSpec:
    try:
        return SCHEMES[tag]
    except KeyError:
        raise ValueError(f"unknown scheme {tag!r}; expected one of {tuple(SCHEMES)}") from None


def sample_feasible_channel(
    scheme: str,
    seed: int,
    min_margin: float = GENERIC_PHASE_MARGIN,
    max_attempts: int = 64,
) -> ComplexChannelMatrix:
    """Draw a random channel for `scheme` with a safe feasibility margin.

    A draw whose gating phase sums come within `min_margin` radians of a
    multiple of pi is redrawn (deterministically: attempt k reseeds with
    (seed, k)).  Attempt 0 is the plain sample_channel draw, so channels that
    were already safe come back unchanged.  Only schemes whose feasibility is
    an open condition can be sampled; the closure-gated scheme needs specially
    constructed channels instead.
    """
    spec = scheme_spec(scheme)
    if not spec.sampleable:
        raise ValueError(
            "random channels fail the closure condition almost surely; "
            "use construct_special_channel('phase-example') or a channel file"
        )
    if min_margin < 0:
        raise ValueError("min_margin must be nonnegative")
    num_rx, num_tx = spec.shape
    for attempt in range(max_attempts):
        entropy = seed if attempt == 0 else [seed, attempt]
        chn = sample_channel(entropy, num_tx, num_rx)
        report = check_conditions(chn, spec.feasibility)
        if min(rec.distance for rec in report.records) >= min_margin:
            return chn
    raise InfeasibleChannelError(
        scheme,
        ("margin",),
        f"no draw with margin >= {min_margin} within {max_attempts} attempts",
    )


def build_phase_alignment(channel: ComplexChannelMatrix) -> BeamformerSet:
    """Single-symbol scheme for the 3-user channel: one stream per user (3/2)."""
    return _build(SCHEMES["phase-align"], channel)


def build_acs_ic3(
    channel: ComplexChannelMatrix,
    seed: int,
    check: bool = True,
    draws: int = CANDIDATE_DRAWS,
) -> BeamformerSet:
    """Five-slot scheme for the 3-user channel: four streams per user (12/10 total)."""
    return _build(SCHEMES["acs-ic3"], channel, seed, check, draws)


def build_x_channel(
    channel: ComplexChannelMatrix,
    seed: int,
    check: bool = True,
    draws: int = CANDIDATE_DRAWS,
) -> BeamformerSet:
    """Three-slot scheme for 2x2 crossed messages: two streams per message (8/6 total)."""
    return _build(SCHEMES["x-channel"], channel, seed, check, draws)


def build_cognitive_x(channel: ComplexChannelMatrix) -> BeamformerSet:
    """Single-symbol 2x2 scheme with one message known to the second receiver (3/2)."""
    return _build(SCHEMES["cognitive-x"], channel)


def build_uplinks(
    channel: ComplexChannelMatrix,
    seed: int,
    check: bool = True,
    draws: int = CANDIDATE_DRAWS,
) -> BeamformerSet:
    """Three-slot scheme for two interfering two-user uplinks (8/6 total)."""
    return _build(SCHEMES["uplinks"], channel, seed, check, draws)


def build_scheme(tag: str, channel: ComplexChannelMatrix, seed: int = 0, check: bool = True) -> BeamformerSet:
    """Build any scheme of the table; the single-symbol ones ignore `seed`."""
    return _build(scheme_spec(tag), channel, seed, check)
