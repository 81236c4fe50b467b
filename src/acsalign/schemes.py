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
from functools import cached_property
from itertools import groupby

import numpy as np

from . import _exports
from .channel import ComplexChannelMatrix, ExtendedRotation, sample_channel
from .verify import (
    _GATES,
    SV_INDEPENDENT,
    ConditionReport,
    InfeasibleChannelError,
    _require_shape,
    _stacks,
    _verdict,
    check_conditions,
)

__all__ = _exports(__name__)

# How many free-column draws the randomized builders try before keeping the
# best conditioned one.
CANDIDATE_DRAWS = 8

# Phase distance (radians) to the degenerate set below which a random draw is
# rejected by SchemeSpec.sample.  Feasibility is an open condition, so
# arbitrarily small margins are still feasible but condition the construction
# badly; the receive-side singular values shrink roughly with this distance.
GENERIC_PHASE_MARGIN = 1e-2

# How many seeded draws SchemeSpec.sample tries before giving up.
_SAMPLE_ATTEMPTS = 64


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

    def __post_init__(self):
        if self.stream_rx:
            self._check_recipe()
        # A stack wider than its 2S rows cannot be zero-forced, and an SVD of it
        # returns only 2S singular values, blind to its null space.
        for rx, (_, keys) in enumerate(self._layout):
            if len(keys) > 2 * self.extension:
                raise ValueError(f"{self.tag}: receiver {rx} stacks {len(keys)} columns "
                                 f"in {2 * self.extension} real dimensions")

    def _check_recipe(self) -> None:
        """Refuse a recipe that routes a stream to no receiver of the gate's
        shape, makes a stream other than exactly once (free, fixed, or derived
        from a column made before it) or aligns a stream at its own receiver."""
        num_rx, num_tx = self.shape
        if len(self.stream_rx) != num_tx:
            raise ValueError(f"{self.tag}: {len(self.stream_rx)} transmitters on a {num_rx}x{num_tx} channel")
        routes = {(t, c): rx for t, c, rx in self.streams()}
        for stream, rx in routes.items():
            if not 0 <= rx < num_rx:
                raise ValueError(f"{self.tag}: stream {stream} goes to receiver {rx}, not one of 0..{num_rx - 1}")
        made = [(t, c) for t, cols in self.free_blocks for c in cols] + [key for key, _ in self.fixed_columns]
        for pair in self.alignments:
            for side in (pair.kept, pair.dropped):
                if not 0 <= pair.rx < num_rx or routes.get(side, pair.rx) == pair.rx:
                    raise ValueError(f"{self.tag}: {pair} aligns {side}, which is no stream interfering "
                                     f"at receiver {pair.rx}")
            if not pair.up_to_sign:
                if pair.kept not in made:
                    raise ValueError(f"{self.tag}: {pair} derives {pair.dropped} from {pair.kept}, "
                                     "which is not made before it")
                made.append(pair.dropped)
        for column in made:
            if column not in routes:
                raise ValueError(f"{self.tag}: column {column} is made but is no stream")
        for stream in routes:
            if made.count(stream) != 1:
                raise ValueError(f"{self.tag}: stream {stream} is made {made.count(stream)} times, not once")

    @property
    def shape(self) -> tuple[int, int]:
        """(num_rx, num_tx): the channel shape the gate reads."""
        return _GATES[self.feasibility].shape

    @property
    def sampleable(self) -> bool:
        """Whether random draws can pass the gate: not if it has a "zero"
        condition, which a random draw misses almost surely."""
        return all(requires == "nonzero" for *_, requires in _GATES[self.feasibility].conditions)

    def gate(self, channel: ComplexChannelMatrix) -> tuple[ConditionReport, tuple[str, ...]]:
        """This scheme's feasibility report on `channel` and the conditions it
        fails; a disconnected channel fails a `connected` row on that alone."""
        report = check_conditions(channel, self.feasibility)
        disconnected = _GATES[self.feasibility].connected and not channel.fully_connected
        return report, ("fully-connected",) if disconnected else report.failed

    def sample(self, seed: int) -> ComplexChannelMatrix:
        """The random channel of one sweep trial, drawn by this spec's own gate.

        Under an open gate, a draw whose gating phase sums come within
        GENERIC_PHASE_MARGIN radians of a multiple of pi is redrawn, up to
        _SAMPLE_ATTEMPTS times (deterministically: attempt k reseeds with
        (seed, k)).  Attempt 0 is the plain sample_channel draw, so channels
        that were already safe come back unchanged.  A closure-gated spec gets
        the plain draw, which its gate then rejects.
        """
        num_rx, num_tx = self.shape
        if not self.sampleable:
            return sample_channel(seed, num_tx, num_rx)
        for attempt in range(_SAMPLE_ATTEMPTS):
            chn = sample_channel(seed if attempt == 0 else [seed, attempt], num_tx, num_rx)
            report = check_conditions(chn, self.feasibility)
            if min(rec.distance for rec in report.records) >= GENERIC_PHASE_MARGIN:
                return chn
        raise InfeasibleChannelError(
            self.tag,
            ("margin",),
            f"no draw with margin >= {GENERIC_PHASE_MARGIN} within {_SAMPLE_ATTEMPTS} attempts",
        )

    def descriptor(self) -> dict:
        """The scheme's stream layout and sum DoF, as `verify` reports them."""
        # Only the descriptor needs exact fractions: a sweep loads no fractions module.
        from fractions import Fraction

        per_tx = [len(rxs) for rxs in self.stream_rx]
        return {"scheme": self.tag, "extension": self.extension, "streams_per_tx": per_tx,
                "dof": str(Fraction(sum(per_tx), 2 * self.extension)), "feasibility": self.feasibility}

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

    def _receiver(self, rx: int) -> tuple[tuple, tuple]:
        """Receiver rx's entry of _layout; an rx outside 0..num_rx-1 is refused."""
        if not 0 <= rx < len(self._layout):
            raise ValueError(f"rx must be in 0..{len(self._layout) - 1}, got {rx}")
        return self._layout[rx]

    def desired_streams(self, rx: int) -> tuple[tuple[int, int], ...]:
        return self._receiver(rx)[0]

    def interference_basis(self, rx: int) -> tuple[tuple[int, int], ...]:
        """Interfering (tx, column) pairs at rx, deduplicated and genie-filtered.

        Aligned duplicates land on a kept column's image, so dropping them
        loses nothing; removed_streams never enter at all.
        """
        desired, keys = self._receiver(rx)
        return keys[len(desired):]


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
            if not np.all(np.abs(np.linalg.norm(m, axis=0) - 1.0) <= 1e-12):
                raise ValueError(f"transmitter {t}: columns must be unit norm")
            # Caller input on one transmitter's own columns, not verify's receiver verdict.
            if rxs and np.linalg.svd(m, compute_uv=False).min() <= 1e-9:
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

    def column(self, tx: int, col: int) -> np.ndarray:
        return self.matrices[tx][:, col]


def _free_columns(spec: SchemeSpec, seeds, draws: int) -> dict:
    """Every candidate's free columns for a block of trials, keyed (tx, column),
    each (trials, draws, 2S).

    Trial i's draws come from one rng seeded with seeds[i]: one standard_normal
    call fills all its free blocks candidate-major, so candidate j's block
    (tx, columns) holds the normals a sequential (2S, k) draw per block would.
    The blocks of each width, over all trials and candidates, then go through
    one stacked QR, a QR per trial, candidate and block, whose sign is fixed so
    the draw is reproducible at the bit level.
    """
    if not spec.free_blocks:
        return {}
    dim = 2 * spec.extension
    sizes = [dim * len(cols) for _, cols in spec.free_blocks]
    starts = np.cumsum([0, *sizes[:-1]])
    normals = np.stack([np.random.default_rng(seed).standard_normal((draws, sum(sizes))) for seed in seeds])
    widths: dict[int, list[int]] = {}
    for b, (_, cols) in enumerate(spec.free_blocks):
        widths.setdefault(len(cols), []).append(b)
    columns = {}
    for width, blocks in widths.items():
        taken = normals[..., starts[blocks][:, None] + np.arange(dim * width)]
        q, r = np.linalg.qr(taken.reshape(len(seeds), draws, len(blocks), dim, width))
        signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        signs[signs == 0] = 1.0
        q = q * signs[..., None, :]
        for i, b in enumerate(blocks):
            tx, cols = spec.free_blocks[b]
            for k, c in enumerate(cols):
                columns[tx, c] = q[..., i, :, k]
    return columns


def _derivations(spec: SchemeSpec, phases: np.ndarray) -> list[tuple[np.ndarray, list[AlignmentPair]]]:
    """Each derivation rotation p[rx, kept_tx] - p[rx, dropped_tx] of every
    trial of a block, `phases` being the block's (trials, num_rx, num_tx) phase
    grids, all built by one ExtendedRotation: per run of consecutive alignment
    pairs sharing a rotation, the block's rotations (trials, 2S, 2S) and the run."""
    pairs = (pair for pair in spec.alignments if not pair.up_to_sign)
    runs = [(key, list(group)) for key, group in groupby(pairs, key=lambda p: (p.rx, p.kept[0], p.dropped[0]))]
    rx, ktx, dtx = np.array([key for key, _ in runs], dtype=int).reshape(-1, 3).T
    rotations = ExtendedRotation(phases[:, rx, ktx] - phases[:, rx, dtx], spec.extension).matrix
    return [(rotations[:, i], group) for i, (_, group) in enumerate(runs)]


def _derive_columns(derivations: list[tuple[np.ndarray, list[AlignmentPair]]], columns: dict) -> None:
    """Fill in every dropped column of `columns`, each (trials, draws, 2S), by
    rotating its kept partner onto the same receive image with its trial's
    rotation.  A run of pairs goes through one stacked matmul (a matrix product
    per trial and candidate) and a lone pair through a matvec per trial and
    candidate: the built bits, and with them every sweep file, depend on that
    grouping."""
    for rot, group in derivations:
        rot = rot[:, None]
        if len(group) == 1:
            columns[group[0].dropped] = np.matmul(rot, columns[group[0].kept][..., None])[..., 0]
            continue
        block = np.matmul(rot, np.stack([columns[p.kept] for p in group], axis=-1))
        for k, pair in enumerate(group):
            columns[pair.dropped] = block[..., k]


def _candidates(spec: SchemeSpec, channels, seeds) -> tuple[dict, list, np.ndarray]:
    """All candidate column sets of a block of builds as one stacked batch, their
    receiver stacks and their scores.

    Trial i builds on channels[i] from seeds[i].  The columns are keyed
    (tx, column), each (trials, candidates, 2S): CANDIDATE_DRAWS draws of the
    free blocks from one rng per trial, or the fixed columns once.  The stacks
    are each receiver's (stack, singular values) from verify's _stacks, with
    the same two leading axes.  A candidate's score is the smallest singular
    value of any receiver's stacked desired and interference images: an array
    (trials, candidates).  Every link and derivation rotation of the block
    comes from one ExtendedRotation each.
    """
    phases = np.stack([channel.phase for channel in channels])
    draws = CANDIDATE_DRAWS if spec.free_blocks else 1
    columns = {key: np.tile(col, (len(channels), draws, 1)) for key, col in spec.fixed_columns}
    columns.update(_free_columns(spec, seeds, draws))
    _derive_columns(_derivations(spec, phases), columns)
    links = ExtendedRotation(phases, spec.extension).matrix
    for channel, own in zip(channels, links):
        # Kept with the channel, so a later reader of the set built on it reuses them.
        channel._derived(("rotations", spec.extension), lambda: own)
    receivers = _stacks(lambda t, c: columns[t, c], links,
                        [(rx, keys) for rx, (_, keys) in enumerate(spec._layout)])
    scores = np.min([svals.min(axis=-1) for _, svals in receivers], axis=0)
    return columns, receivers, scores


def _build_block(spec: SchemeSpec, channels, seeds, check: bool = True) -> tuple[list, list]:
    """Build a scheme from its spec for a block of trials, trial i on
    channels[i] from seeds[i]; `check=False` skips the feasibility and
    conditioning gates, to probe what happens on channels that violate them.

    Returns each trial's outcome, a validated BeamformerSet or the
    InfeasibleChannelError that refused it, and the built trials' receiver
    stacks and singular values (one (stack, singular values) pair per
    receiver, one row per built trial in trial order), which the candidate
    scoring already computed.  Each trial's gate is its own.  All candidates
    of the trials past their gates are drawn, derived and scored as one
    stacked batch (see _candidates) and each trial keeps its first best
    scored one; a spec with fixed columns has a single candidate.  A channel so close to the degenerate set that
    verify's verdict on its best score is not "independent" fails the gate,
    and its neighbours in the block go on.  The result is deterministic in
    each (channel, seed), and equals, bit for bit, drawing, deriving and
    scoring the candidates one at a time from a sequential rng; the first
    candidate reproduces a single plain draw.
    """
    if not spec.stream_rx:
        raise ValueError(f"{spec.tag!r} sends no beamformed streams; only its rates can be swept")
    outcomes: list = [None] * len(channels)
    for i, channel in enumerate(channels):
        _require_shape(channel, spec.shape, spec.tag)
        failed = spec.gate(channel)[1] if check else ()
        if failed:
            outcomes[i] = InfeasibleChannelError(spec.tag, failed)
    live = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if not live:
        return outcomes, []
    columns, receivers, scores = _candidates(spec, [channels[i] for i in live], [seeds[i] for i in live])
    best = np.argmax(scores, axis=-1)
    built = []
    for j, i in enumerate(live):
        score = float(scores[j, best[j]])
        if check and _verdict(score) != "independent":
            outcomes[i] = InfeasibleChannelError(
                spec.tag, ("conditioning",), f"smallest receive singular value {score:.3g} <= {SV_INDEPENDENT:g}")
        else:
            built.append(j)
    # The winners' columns, one (trials, 2S, d_t) array per transmitter.
    take = (np.array(built, dtype=int), best[built])
    winners = [np.stack([columns[t, c][take] for c in range(len(rxs))], axis=-1) if rxs
               else np.empty((len(built), 2 * spec.extension, 0)) for t, rxs in enumerate(spec.stream_rx)]
    for k, j in enumerate(built):
        outcomes[live[j]] = BeamformerSet(spec, tuple(m[k] for m in winners))
    return outcomes, [(stack[take], svals[take]) for stack, svals in receivers]


def _build(spec: SchemeSpec, channel: ComplexChannelMatrix, seed: int = 0, check: bool = True) -> BeamformerSet:
    """Build a scheme from its spec on one channel: _build_block on a block of
    one, raising the InfeasibleChannelError that refuses it."""
    (outcome,), _ = _build_block(spec, [channel], [seed], check)
    if isinstance(outcome, InfeasibleChannelError):
        raise outcome
    return outcome


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


def sample_feasible_channel(scheme: str, seed: int) -> ComplexChannelMatrix:
    """Draw a random channel for the table's `scheme` with a safe feasibility
    margin: its SchemeSpec.sample.  Only schemes whose feasibility is an open
    condition can be sampled; the closure-gated scheme needs specially
    constructed channels instead.
    """
    spec = scheme_spec(scheme)
    if not spec.sampleable:
        raise ValueError(
            "random channels fail the closure condition almost surely; "
            "use construct_special_channel('phase-example') or a channel file"
        )
    return spec.sample(seed)


def build_phase_alignment(channel: ComplexChannelMatrix) -> BeamformerSet:
    """Single-symbol scheme for the 3-user channel: one stream per user (3/2)."""
    return _build(SCHEMES["phase-align"], channel)


def build_acs_ic3(channel: ComplexChannelMatrix, seed: int, check: bool = True) -> BeamformerSet:
    """Five-slot scheme for the 3-user channel: four streams per user (12/10 total)."""
    return _build(SCHEMES["acs-ic3"], channel, seed, check)


def build_x_channel(channel: ComplexChannelMatrix, seed: int, check: bool = True) -> BeamformerSet:
    """Three-slot scheme for 2x2 crossed messages: two streams per message (8/6 total)."""
    return _build(SCHEMES["x-channel"], channel, seed, check)


def build_cognitive_x(channel: ComplexChannelMatrix) -> BeamformerSet:
    """Single-symbol 2x2 scheme with one message known to the second receiver (3/2)."""
    return _build(SCHEMES["cognitive-x"], channel)


def build_uplinks(channel: ComplexChannelMatrix, seed: int, check: bool = True) -> BeamformerSet:
    """Three-slot scheme for two interfering two-user uplinks (8/6 total)."""
    return _build(SCHEMES["uplinks"], channel, seed, check)


def build_scheme(tag: str, channel: ComplexChannelMatrix, seed: int = 0, check: bool = True) -> BeamformerSet:
    """Build any scheme of the table; the single-symbol ones ignore `seed`."""
    return _build(scheme_spec(tag), channel, seed, check)
