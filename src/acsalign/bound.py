"""Exhaustive search over linear stream allocations for the 3-user channel.

The model: over S complex slots (2S real dimensions per receiver), user i
decodes d_i streams, and each unordered user pair (i, j) may overlap in
d_ij alignment dimensions at the third receiver.  A receiver must fit all
desired plus distinct interference dimensions into 2S, and a transmitter's
overlaps with the two others must partition within its own d_i.  Everything
is exact integer/rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import _exports, _extension

__all__ = _exports(__name__)

# The largest S the enumeration takes, the last that stays within 20 million
# steps of one per stream triple and one per feasible profile: S = 31 takes
# 250,047 + 17,991,729 steps, S = 32 would take 21,768,860.
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


def _feasible_runs(extension: int) -> Iterator[tuple[tuple[int, int, int], int, int, int, int]]:
    """Yield (streams, d12, d23, lo, hi) in lexicographic order: every d31 in
    lo..hi completes a feasible profile, and no run is empty.

    Loop bounds encode the constraints exactly, so nothing feasible is
    skipped and nothing infeasible is yielded.  Each d_i runs to 2S only:
    receiver 1 alone needs d1 + max(d2, d3) <= 2S, since its interferers
    share at most min(d2, d3) dimensions.
    """
    two_s = 2 * extension
    for d1 in range(two_s + 1):
        for d2 in range(two_s + 1):
            for d3 in range(two_s + 1):
                lo = max(0, d1 + d2 + d3 - two_s)  # receiver bounds floor every overlap
                for d12 in range(lo, min(d1, d2) + 1):
                    for d23 in range(lo, min(d2 - d12, d3) + 1):
                        hi = min(d1 - d12, d3 - d23)
                        if hi >= lo:
                            yield (d1, d2, d3), d12, d23, lo, hi


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


def max_dof(extension: int) -> BoundResult:
    """Exact maximum of (d1+d2+d3)/(2S) over all feasible profiles, with every
    maximizing profile reported.  Runs are counted, not expanded: only the
    maximizers become AllocationProfiles.  S is at most MAX_EXTENSION."""
    extension = _capped_extension(extension)
    best_total = -1
    best_runs: list[tuple] = []
    count = 0
    for run in _feasible_runs(extension):
        streams, _, _, lo, hi = run
        count += hi - lo + 1
        total = sum(streams)
        if total > best_total:
            best_total = total
            best_runs = [run]
        elif total == best_total:
            best_runs.append(run)
    argmax = tuple(_profiles(extension, best_runs))
    return BoundResult(extension, Fraction(best_total, 2 * extension), argmax, count)
