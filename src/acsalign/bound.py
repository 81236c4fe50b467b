"""The exact 6/5 allocation bound for the 3-user channel, in closed form.

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

# The six constraints check_allocation tests, in the order it reports them,
# as (label, row, bound):
# a profile x = (d1, d2, d3, d12, d23, d31) must have row . x <= bound * S.
# Each transmitter's overlaps with the other two are disjoint slices of its
# own streams; a receiver sees its own streams plus both interferers, who
# may share only their mutual overlap there.
_CONSTRAINTS = (
    ("partition-user-1", (-1, 0, 0, 1, 0, 1), 0),
    ("partition-user-2", (0, -1, 0, 1, 1, 0), 0),
    ("partition-user-3", (0, 0, -1, 0, 1, 1), 0),
    ("receiver-1", (1, 1, 1, 0, -1, 0), 2),
    ("receiver-2", (1, 1, 1, 0, 0, -1), 2),
    ("receiver-3", (1, 1, 1, -1, 0, 0), 2),
)

# The constant term of 600 * num_feasible(S), by S mod 5 (see max_dof).
_COUNT_CONSTANT = (600, 648, 648, 600, 624)


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
    x = profile.streams + profile.overlaps
    violations = tuple(label for label, row, bound in _CONSTRAINTS
                       if sum(a * v for a, v in zip(row, x)) > bound * profile.extension)
    return AllocationCheck(not violations, violations)


def _triple_runs(two_s: int, streams: tuple[int, int, int]
                 ) -> Iterator[tuple[tuple[int, int, int], int, int, int, int]]:
    """Yield (streams, d12, d23, lo, hi) for one stream triple in
    lexicographic order: every d31 in lo..hi completes a feasible profile,
    and no run is empty.  Loop bounds encode the constraints exactly: the
    receivers floor every overlap at lo, so d12 leaves at least lo for d31
    in d1 and for d23 in d2, and d23 leaves at least lo for d31 in d3."""
    d1, d2, d3 = streams
    lo = max(0, d1 + d2 + d3 - two_s)
    for d12 in range(lo, min(d1, d2) - lo + 1):
        for d23 in range(lo, min(d2 - d12, d3 - lo) + 1):
            yield streams, d12, d23, lo, min(d1 - d12, d3 - d23)


def _profiles(extension: int, runs) -> Iterator[AllocationProfile]:
    for streams, d12, d23, lo, hi in runs:
        for d31 in range(lo, hi + 1):
            yield AllocationProfile(extension, streams, (d12, d23, d31))


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


def max_dof(extension: int) -> BoundResult:
    """Exact maximum of (d1+d2+d3)/(2S) over all feasible profiles, every
    maximizing profile in lexicographic (d1, d2, d3, d12, d23, d31) order,
    and the number of feasible profiles.  Each is a closed-form fact, so a
    row costs the same at any S:

    - The count.  The feasible profiles at S are the lattice points of S*P,
      where P is the 6-dim polytope cut out by x >= 0 and the rows of
      _CONSTRAINTS at S = 1.  P is bounded (no coordinate exceeds 2) and has
      8 vertices, whose denominators are 1 and 5, so 5P is integral.  By
      Ehrhart's theorem for rational polytopes (Beck and Robins, Computing
      the Continuous Discretely, ch. 3) the count is a quasi-polynomial of
      degree 6 whose period divides 5: one polynomial of degree at most 6
      per residue of S mod 5, fixed by seven of its values.  The values at
      S = 1..35 give

          num_feasible(S) = (8 S^6 + 108 S^5 + 595 S^4 + 1710 S^3
                             + 2661 S^2 + 2070 S + c) / 600,
          c = 600, 648, 648, 600, 624 for S mod 5 = 0, 1, 2, 3, 4.

    - The best total is T = floor(12S / 5).  The three receiver rows plus
      half of each partition row give 5T <= 12S, and S // 5 copies of the
      S = 5 maximizer (4, 4, 4; 2, 2, 2) added to a best profile at S mod 5
      reach it.
    - The maximizers.  The receiver rows floor every overlap at
      lo = T - 2S = floor(2S / 5), and the partition rows then need every
      d_i >= 2 lo; all overlaps at lo meet both, so a stream triple of total
      T has feasible overlaps iff its smallest entry is at least 2 lo.
      Those sorted triples span a range of constant width, and each of
      their permutations is expanded through _triple_runs.

    tests/test_bound.py proves each fact: the vertices by exact elimination,
    the bound on P, the formula against a loop over stream triples at
    S = 1..35 and 60..64, the 6/5 certificate and profile, and the
    maximizers against the enumeration of every feasible profile.
    """
    s = _extension(extension)
    two_s = 2 * s
    best_total = 12 * s // 5
    lo = best_total - two_s
    triples = ((d1, d2, best_total - d1 - d2)
               for d1 in range(2 * lo, best_total // 3 + 1)
               for d2 in range(d1, (best_total - d1) // 2 + 1))
    best_streams = sorted({p for t in triples for p in itertools.permutations(t)})
    runs = (run for streams in best_streams for run in _triple_runs(two_s, streams))
    argmax = tuple(_profiles(s, runs))
    return BoundResult(s, Fraction(best_total, two_s), argmax, _num_feasible(s))


def _num_feasible(s: int) -> int:
    """The number of feasible profiles at S = s, the Ehrhart count of max_dof."""
    count = 8 * s**6 + 108 * s**5 + 595 * s**4 + 1710 * s**3 + 2661 * s**2 + 2070 * s
    return (count + _COUNT_CONSTANT[s % 5]) // 600
