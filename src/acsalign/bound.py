"""Exhaustive search over linear stream allocations for the 3-user channel.

The model: over S complex slots (2S real dimensions per receiver), user i
decodes d_i streams, and each unordered user pair (i, j) may overlap in
d_ij alignment dimensions at the third receiver.  A receiver must fit all
desired plus distinct interference dimensions into 2S, and a transmitter's
overlaps with the two others must partition within its own d_i.  Everything
is exact integer/rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import _exports, _extension

__all__ = _exports(__name__)

# The largest S the bound takes.  max_dof counts in closed form, but
# iter_feasible_profiles still yields every feasible profile, and S = 31 is
# the last S with fewer than 20 million of them (17,991,729; S = 32 has
# 21,494,235).
MAX_EXTENSION = 31


def _capped_extension(extension) -> int:
    """`extension` as an int, or ValueError unless it is an S in 1..MAX_EXTENSION."""
    extension = _extension(extension)
    if extension > MAX_EXTENSION:
        raise ValueError(f"extension must be at most {MAX_EXTENSION}")
    return extension


@dataclass(frozen=True)
class AllocationProfile:
    """Stream counts and pairwise overlaps for one candidate allocation.

    overlaps holds (d12, d23, d31): the overlap of a pair is a single number,
    so symmetry between (i, j) and (j, i) is structural.
    """

    extension: int
    streams: tuple[int, int, int]
    overlaps: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "extension", _extension(self.extension))
        for name, triple in (("streams", self.streams), ("overlaps", self.overlaps)):
            if len(triple) != 3:
                raise ValueError(f"{name} must have three entries")
            message = f"{name} must be nonnegative integers"
            object.__setattr__(self, name, tuple(_extension(v, 0, message) for v in triple))

    def overlap(self, i: int, j: int) -> int:
        """Overlap between users i and j (1-based, order irrelevant)."""
        key = frozenset((i, j))
        table = {frozenset((1, 2)): 0, frozenset((2, 3)): 1, frozenset((3, 1)): 2}
        if key not in table:
            raise ValueError(f"no overlap between users {i} and {j}")
        return self.overlaps[table[key]]

    @property
    def ratio(self) -> Fraction:
        return Fraction(sum(self.streams), 2 * self.extension)

    def to_dict(self) -> dict:
        return {
            "extension": self.extension,
            "streams": list(self.streams),
            "overlaps": {"d12": self.overlaps[0], "d23": self.overlaps[1], "d31": self.overlaps[2]},
            "ratio": str(self.ratio),
        }


@dataclass(frozen=True)
class AllocationCheck:
    feasible: bool
    violations: tuple[str, ...]


def check_allocation(profile: AllocationProfile) -> AllocationCheck:
    """Test the partition and receiver-dimension constraints of one profile."""
    d1, d2, d3 = profile.streams
    d12, d23, d31 = profile.overlaps
    two_s = 2 * profile.extension
    total = d1 + d2 + d3
    violations = []
    # Each transmitter's overlaps with the other two are disjoint slices of
    # its own streams.
    if d12 + d31 > d1:
        violations.append("partition-user-1")
    if d12 + d23 > d2:
        violations.append("partition-user-2")
    if d23 + d31 > d3:
        violations.append("partition-user-3")
    # A receiver sees its own streams plus both interferers, who may share
    # only their mutual overlap there.
    if total - d23 > two_s:
        violations.append("receiver-1")
    if total - d31 > two_s:
        violations.append("receiver-2")
    if total - d12 > two_s:
        violations.append("receiver-3")
    return AllocationCheck(not violations, tuple(violations))


def _triple_runs(two_s: int, streams: tuple[int, int, int]
                 ) -> Iterator[tuple[tuple[int, int, int], int, int, int, int]]:
    """Yield (streams, d12, d23, lo, hi) for one stream triple in
    lexicographic order: every d31 in lo..hi completes a feasible profile,
    and no run is empty.  Loop bounds encode the constraints exactly."""
    d1, d2, d3 = streams
    lo = max(0, d1 + d2 + d3 - two_s)  # receiver bounds floor every overlap
    for d12 in range(lo, min(d1, d2) + 1):
        for d23 in range(lo, min(d2 - d12, d3) + 1):
            hi = min(d1 - d12, d3 - d23)
            if hi >= lo:
                yield streams, d12, d23, lo, hi


def _feasible_runs(extension: int) -> Iterator[tuple[tuple[int, int, int], int, int, int, int]]:
    """Yield the runs of _triple_runs for every stream triple in
    lexicographic order, so nothing feasible is skipped and nothing
    infeasible is yielded.

    Each d_i runs to 2S only: receiver 1 alone needs d1 + max(d2, d3) <= 2S,
    since its interferers share at most min(d2, d3) dimensions.
    """
    two_s = 2 * extension
    for streams in itertools.product(range(two_s + 1), repeat=3):
        yield from _triple_runs(two_s, streams)


def _profiles(extension: int, runs) -> Iterator[AllocationProfile]:
    for streams, d12, d23, lo, hi in runs:
        for d31 in range(lo, hi + 1):
            yield AllocationProfile(extension, streams, (d12, d23, d31))


def iter_feasible_profiles(extension: int) -> Iterator[AllocationProfile]:
    """Yield every feasible profile in lexicographic (d1, d2, d3, d12, d23, d31)
    order.  An S past MAX_EXTENSION raises ValueError here, at the call."""
    extension = _capped_extension(extension)
    return _profiles(extension, _feasible_runs(extension))


@dataclass(frozen=True)
class BoundResult:
    extension: int
    best_ratio: Fraction
    argmax: tuple[AllocationProfile, ...]
    num_feasible: int

    def to_dict(self) -> dict:
        return {
            "extension": self.extension,
            "best_ratio": str(self.best_ratio),
            "num_feasible": self.num_feasible,
            "argmax": [p.to_dict() for p in self.argmax],
        }


def _tri_step2(n: int) -> int:
    """T(n) + T(n-2) + T(n-4) + ... down to T(0) or T(1), where T(k) =
    (k+1)(k+2)/2 counts the (y, z) >= 0 with y + z <= k; 0 for n < 0.

    With n = 2j the sum is sum_i (2i+1)(i+1) = (j+1)(j+2)(4j+3)/6; with
    n = 2j+1 it is sum_i (i+1)(2i+3) = (j+1)(j+2)(4j+9)/6 (i = 0..j)."""
    if n < 0:
        return 0
    j, odd = divmod(n, 2)
    return (j + 1) * (j + 2) * (4 * j + (9 if odd else 3)) // 6


def _overlap_count(a1: int, a2: int, a3: int) -> int:
    """Number of (x, y, z) >= 0 with x + z <= a1, x + y <= a2, y + z <= a3.

    Relabelling x, y, z permutes the three bounds, so take a1 <= a2 <= a3.
    For fixed x in 0..a1 the (y, z) lie in the box y <= B = a2 - x,
    z <= A = a1 - x, which holds (A+1)(B+1) points.  Those with y + z > a3
    are, with y' = B - y and z' = A - z, the y' + z' <= A + B - a3 - 1 =
    k - 2x for k = a1 + a2 - a3 - 1; as k - 2x < A <= B, the box bounds on
    y', z' never bind, so there are T(k - 2x) of them (T as in
    _tri_step2, 0 below 0).  Summed over x:

        sum_{x=0..a1} (a1-x+1)(a2-x+1) = (a1+1)(a1+2)(3 a2 - a1 + 3) / 6

    box points, less T(k) + T(k-2) + ... = _tri_step2(k), since every
    nonnegative k - 2x has x <= k / 2 < a1.
    """
    a1, a2, a3 = sorted((a1, a2, a3))
    if a1 < 0:
        return 0
    return (a1 + 1) * (a1 + 2) * (3 * a2 - a1 + 3) // 6 - _tri_step2(a1 + a2 - a3 - 1)


def max_dof(extension: int) -> BoundResult:
    """Exact maximum of (d1+d2+d3)/(2S) over all feasible profiles, with every
    maximizing profile reported.  S is at most MAX_EXTENSION.

    Each stream triple's feasible overlaps are counted in closed form.  With
    floor = max(0, d1+d2+d3 - 2S) the receiver constraints say every overlap
    is at least floor, so shifting each overlap down by floor leaves
    (x, y, z) >= 0 with x + z <= a1, x + y <= a2, y + z <= a3 and
    a_i = d_i - 2 floor: that is _overlap_count.  The constraints are
    invariant under relabelling users, so only sorted triples d1 <= d2 <= d3
    are visited, each weighted by its number of distinct permutations, and
    only while the smallest, a1 = d1 - 2 floor, is nonnegative: past that a
    triple has no feasible overlaps.  Only the maximizers become
    AllocationProfiles: every permutation of a best sorted triple is expanded
    through _triple_runs, in lexicographic order as iter_feasible_profiles
    yields them.
    """
    extension = _capped_extension(extension)
    two_s = 2 * extension
    best_total = -1
    best_triples: list[tuple[int, int, int]] = []
    count = 0
    for d1 in range(two_s + 1):
        # a1 >= 0 is d1 + d2 + d3 <= 2S + d1 // 2, so the last d3 is
        # 2S - d2 - ceil(d1 / 2), and d2 runs while that is at least d2.
        reach = two_s - (d1 + 1) // 2
        for d2 in range(d1, reach // 2 + 1):
            for d3 in range(d2, reach - d2 + 1):
                floor = max(0, d1 + d2 + d3 - two_s)
                n = _overlap_count(d1 - 2 * floor, d2 - 2 * floor, d3 - 2 * floor)
                count += n * (1 if d1 == d3 else 3 if d1 == d2 or d2 == d3 else 6)
                total = d1 + d2 + d3
                if total > best_total:
                    best_total = total
                    best_triples = [(d1, d2, d3)]
                elif total == best_total:
                    best_triples.append((d1, d2, d3))
    best_streams = sorted({p for t in best_triples for p in itertools.permutations(t)})
    runs = (run for streams in best_streams for run in _triple_runs(two_s, streams))
    argmax = tuple(_profiles(extension, runs))
    return BoundResult(extension, Fraction(best_total, two_s), argmax, count)
