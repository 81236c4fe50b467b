"""Exact receive ranks on Gaussian-integer channels: an oracle for the float verdicts.

A link acts on the complex S-vector of a column as one complex scalar.  Give
each link a nonzero Gaussian integer z in place of |h|*exp(j*phi), and draw the
free columns with Gaussian-integer entries.  A link's image of a column is
then z times its S complex entries, and a column derived for receiver rx from
its kept partner is z[rx, kept]*conj(z[rx, dropped]) times that partner: the
derivation rotation up to a positive scale.  No positive scale changes a rank,
so every receive stack is an integer matrix of the built stack's rank, which
Fraction elimination finds exactly.  A gate row's signed phase sum is 0 mod pi
exactly when the signed product of its links (conj for a minus sign) is real.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from acsalign.channel import ComplexChannelMatrix
from acsalign.schemes import SCHEMES, _build
from acsalign.verify import _GATES, independence_margin

TAGS = ("acs-ic3", "x-channel", "uplinks")

# Gaussian integers are (re, im) pairs of ints.


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _conj(a):
    return a[0], -a[1]


def _draw(rng):
    """A nonzero Gaussian integer with parts in -9..9."""
    while True:
        z = rng.randint(-9, 9), rng.randint(-9, 9)
        if z != (0, 0):
            return z


def gaussian_channel(shape, rng) -> dict:
    """A nonzero Gaussian integer per link, keyed (rx, tx)."""
    return {(rx, tx): _draw(rng) for rx in range(shape[0]) for tx in range(shape[1])}


def _signed_product(z, terms):
    """The product of the terms' links, conj for a minus sign: its argument is the signed phase sum."""
    product = (1, 0)
    for rt, sign in terms:
        product = _mul(product, z[rt] if sign > 0 else _conj(z[rt]))
    return product


def zero_rows(spec, z) -> list[int]:
    """The rows of the spec's gate whose phase sum is exactly 0 mod pi."""
    return [k for k, (_, terms, _, _) in enumerate(_GATES[spec.feasibility].conditions)
            if _signed_product(z, terms)[1] == 0]


def force_row(spec, z, row) -> dict:
    """`z` with gate row `row`'s last link set so that the row's sum is exactly
    0 mod 2pi, as channel._forced_cross_sum does with phases."""
    *rest, (last, sign) = _GATES[spec.feasibility].conditions[row][1]
    product = _signed_product(z, rest)
    return {**z, last: product if sign < 0 else _conj(product)}


def exact_columns(spec, z, rng) -> dict:
    """Every stream's column as S Gaussian integers, keyed (tx, column): free
    blocks drawn from `rng`, each derived column from its kept partner."""
    columns = {(tx, c): [_draw(rng) for _ in range(spec.extension)] for tx, cols in spec.free_blocks for c in cols}
    for pair in spec.alignments:
        if not pair.up_to_sign:
            scale = _mul(z[pair.rx, pair.kept[0]], _conj(z[pair.rx, pair.dropped[0]]))
            columns[pair.dropped] = [_mul(scale, entry) for entry in columns[pair.kept]]
    return columns


def exact_rank(columns) -> int:
    """The rank of the matrix with these integer columns, by elimination over the rationals."""
    rows = [[Fraction(x) for x in col] for col in columns]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] / rows[rank][c]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_ranks(spec, z, rng) -> list[int]:
    """Each receiver's stack rank, the stack laid out by the spec's _layout:
    column (tx, c) seen at rx is the real lift of z[rx, tx] times its entries."""
    columns = exact_columns(spec, z, rng)

    def image(rx, key):
        return [part for entry in columns[key] for part in _mul(z[rx, key[0]], entry)]

    return [exact_rank([image(rx, key) for key in keys]) for rx, (_, keys) in enumerate(spec._layout)]


def float_verdicts(spec, z, seed) -> list[str]:
    """The package's verdict per receiver on the scheme built on channel z."""
    num_rx, num_tx = spec.shape
    coefficients = np.array([[complex(*z[rx, tx]) for tx in range(num_tx)] for rx in range(num_rx)])
    channel = ComplexChannelMatrix.from_coefficients(coefficients)
    beamformers = _build(spec, channel, seed, check=False)
    return [receiver.status for receiver in independence_margin(beamformers, channel).receivers]


def test_exact_rank_sees_a_dependent_column():
    assert exact_rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    assert exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tag", TAGS)
def test_a_generic_gaussian_integer_channel_has_full_rank_at_every_receiver(tag, seed):
    spec = SCHEMES[tag]
    rng = random.Random(seed)
    z = gaussian_channel(spec.shape, rng)
    assert zero_rows(spec, z) == []
    full = [len(keys) for _, keys in spec._layout]
    assert full == [2 * spec.extension] * len(full)
    assert exact_ranks(spec, z, rng) == full
    assert float_verdicts(spec, z, seed) == ["independent"] * len(full)


FORCED = [(tag, row, seed) for tag in TAGS
          for row in range(len(_GATES[SCHEMES[tag].feasibility].conditions)) for seed in range(2)]


@pytest.mark.parametrize("tag, row, seed", FORCED)
def test_a_forced_gate_row_loses_rank_exactly_at_the_receiver_it_names(tag, row, seed):
    spec = SCHEMES[tag]
    rng = random.Random(seed)
    z = force_row(spec, gaussian_channel(spec.shape, rng), row)
    assert zero_rows(spec, z) == [row]
    full = [len(keys) for _, keys in spec._layout]
    ranks = exact_ranks(spec, z, rng)
    # A row that names no receiver (the x-channel's cross phase) collapses both.
    named = _GATES[spec.feasibility].conditions[row][2]
    expected = [named] if named is not None else list(range(len(full)))
    assert [rx for rx, (rank, width) in enumerate(zip(ranks, full)) if rank < width] == expected
    assert float_verdicts(spec, z, seed) == ["independent" if rank == width else "dependent"
                                             for rank, width in zip(ranks, full)]
