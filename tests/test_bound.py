"""Exact allocation bound: feasibility, the closed-form count and its proof,
extremal ratios, and the enumeration oracles the closed forms are checked
against."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acsalign.bound import (
    _CONSTRAINTS,
    AllocationProfile,
    _profiles,
    _triple_runs,
    check_allocation,
    max_dof,
)
from acsalign.channel import ExtendedRotation, rotation_matrix

# Best ratio by extension, from the receiver-dimension and partition counting:
# the total is capped at 2S plus the largest jointly realizable overlap budget.
CLOSED_FORM = [Fraction(2 * s + (2 * s) // 5, 2 * s) for s in range(1, 11)]


# -- oracles: every feasible profile, and a loop over the sorted stream triples

def feasible_runs(extension: int):
    """The runs of _triple_runs for every stream triple in lexicographic
    order.  Each d_i runs to 2S only: receiver 1 alone needs
    d1 + max(d2, d3) <= 2S, since its interferers share at most min(d2, d3)
    dimensions."""
    two_s = 2 * extension
    for streams in itertools.product(range(two_s + 1), repeat=3):
        yield from _triple_runs(two_s, streams)


def feasible_profiles(extension: int):
    """Every feasible profile in lexicographic (d1, d2, d3, d12, d23, d31) order."""
    return _profiles(extension, feasible_runs(extension))


def tri_step2(n: int) -> int:
    """T(n) + T(n-2) + T(n-4) + ... down to T(0) or T(1), where T(k) =
    (k+1)(k+2)/2 counts the (y, z) >= 0 with y + z <= k; 0 for n < 0.

    With n = 2j the sum is sum_i (2i+1)(i+1) = (j+1)(j+2)(4j+3)/6; with
    n = 2j+1 it is sum_i (i+1)(2i+3) = (j+1)(j+2)(4j+9)/6 (i = 0..j)."""
    if n < 0:
        return 0
    j, odd = divmod(n, 2)
    return (j + 1) * (j + 2) * (4 * j + (9 if odd else 3)) // 6


def overlap_count(a1: int, a2: int, a3: int) -> int:
    """Number of (x, y, z) >= 0 with x + z <= a1, x + y <= a2, y + z <= a3.

    Relabelling x, y, z permutes the three bounds, so take a1 <= a2 <= a3.
    For fixed x in 0..a1 the (y, z) lie in the box y <= B = a2 - x,
    z <= A = a1 - x, which holds (A+1)(B+1) points.  Those with y + z > a3
    are, with y' = B - y and z' = A - z, the y' + z' <= A + B - a3 - 1 =
    k - 2x for k = a1 + a2 - a3 - 1; as k - 2x < A <= B, the box bounds on
    y', z' never bind, so there are T(k - 2x) of them (T as in tri_step2,
    0 below 0).  Summed over x:

        sum_{x=0..a1} (a1-x+1)(a2-x+1) = (a1+1)(a1+2)(3 a2 - a1 + 3) / 6

    box points, less T(k) + T(k-2) + ... = tri_step2(k), since every
    nonnegative k - 2x has x <= k / 2 < a1.
    """
    a1, a2, a3 = sorted((a1, a2, a3))
    if a1 < 0:
        return 0
    return (a1 + 1) * (a1 + 2) * (3 * a2 - a1 + 3) // 6 - tri_step2(a1 + a2 - a3 - 1)


def triple_loop(extension: int) -> tuple[int, int, list]:
    """(number of feasible profiles, best total, best sorted triples) from a
    loop over the sorted stream triples d1 <= d2 <= d3.

    With floor = max(0, d1+d2+d3 - 2S) the receiver constraints say every
    overlap is at least floor, so shifting each overlap down by floor leaves
    (x, y, z) >= 0 with x + z <= a1, x + y <= a2, y + z <= a3 and
    a_i = d_i - 2 floor: that is overlap_count.  The constraints are
    invariant under relabelling users, so each sorted triple is weighted by
    its number of distinct permutations, and visited only while the
    smallest, a1 = d1 - 2 floor, is nonnegative: past that a triple has no
    feasible overlaps.
    """
    two_s = 2 * extension
    best_total, best_triples, count = -1, [], 0
    for d1 in range(two_s + 1):
        # a1 >= 0 is d1 + d2 + d3 <= 2S + d1 // 2, so the last d3 is
        # 2S - d2 - ceil(d1 / 2), and d2 runs while that is at least d2.
        reach = two_s - (d1 + 1) // 2
        for d2 in range(d1, reach // 2 + 1):
            for d3 in range(d2, reach - d2 + 1):
                floor = max(0, d1 + d2 + d3 - two_s)
                n = overlap_count(d1 - 2 * floor, d2 - 2 * floor, d3 - 2 * floor)
                count += n * (1 if d1 == d3 else 3 if d1 == d2 or d2 == d3 else 6)
                total = d1 + d2 + d3
                if total > best_total:
                    best_total, best_triples = total, []
                if total == best_total:
                    best_triples.append((d1, d2, d3))
    return count, best_total, best_triples


def brute_force_profiles(extension: int) -> set:
    cap = 3 * extension
    out = set()
    for d in itertools.product(range(cap + 1), repeat=3):
        for ov in itertools.product(range(cap + 1), repeat=3):
            profile = AllocationProfile(extension, d, ov)
            if check_allocation(profile).feasible:
                out.add((profile.streams, profile.overlaps))
    return out


def test_profile_validation():
    with pytest.raises(ValueError):
        AllocationProfile(0, (1, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        AllocationProfile(1, (1, -1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        AllocationProfile(1, (1, 1), (0, 0, 0))
    with pytest.raises(ValueError, match="streams must be nonnegative integers"):
        AllocationProfile(1, (1.5, 1, 1), (0, 0, 0))
    # NaN, inf and None get the same message as 1.5, not a conversion error.
    for bad in (float("nan"), float("inf"), None):
        with pytest.raises(ValueError, match="streams must be nonnegative integers"):
            AllocationProfile(1, (1, bad, 1), (0, 0, 0))
        with pytest.raises(ValueError, match="overlaps must be nonnegative integers"):
            AllocationProfile(1, (1, 1, 1), (0, 0, bad))


def test_overlap_accessor_is_symmetric():
    p = AllocationProfile(5, (4, 4, 4), (2, 1, 0))
    assert p.overlap(1, 2) == p.overlap(2, 1) == 2
    assert p.overlap(2, 3) == p.overlap(3, 2) == 1
    assert p.overlap(3, 1) == p.overlap(1, 3) == 0
    with pytest.raises(ValueError):
        p.overlap(1, 1)
    with pytest.raises(ValueError):
        p.overlap(0, 2)


def test_ratio_is_exact():
    p = AllocationProfile(5, (4, 4, 4), (2, 2, 2))
    assert p.ratio == Fraction(6, 5)
    d = p.to_dict()
    assert d["ratio"] == "6/5"
    assert d["overlaps"] == {"d12": 2, "d23": 2, "d31": 2}


def test_known_feasible_allocation():
    check = check_allocation(AllocationProfile(5, (4, 4, 4), (2, 2, 2)))
    assert check.feasible and check.violations == ()


def test_receiver_constraint_labels():
    check = check_allocation(AllocationProfile(1, (2, 2, 2), (0, 0, 0)))
    assert check.violations == ("receiver-1", "receiver-2", "receiver-3")


def test_partition_constraint_labels():
    check = check_allocation(AllocationProfile(2, (1, 1, 4), (1, 1, 1)))
    assert check.violations == (
        "partition-user-1",
        "partition-user-2",
        "receiver-1",
        "receiver-2",
        "receiver-3",
    )


@pytest.mark.parametrize("extension", [1, 2])
def test_enumeration_matches_brute_force(extension):
    enumerated = {(p.streams, p.overlaps) for p in feasible_profiles(extension)}
    assert enumerated == brute_force_profiles(extension)


def test_enumeration_yields_no_duplicates():
    profiles = list(feasible_profiles(3))
    assert len(profiles) == len({(p.streams, p.overlaps) for p in profiles})


@pytest.mark.parametrize("extension,count", [(1, 13), (2, 71), (3, 262), (4, 761), (5, 1876),
                                             (31, 17_991_729), (32, 21_494_235)])
def test_feasible_profile_counts(extension, count):
    assert max_dof(extension).num_feasible == count


def test_overlap_count_matches_a_direct_loop():
    for a in itertools.product(range(11), repeat=3):
        direct = sum(1 for x, y, z in itertools.product(range(11), repeat=3)
                     if x + z <= a[0] and x + y <= a[1] and y + z <= a[2])
        assert overlap_count(*a) == direct, a
    for a in ((-1, 0, 0), (3, -1, 5), (4, 4, -2)):
        assert overlap_count(*a) == 0


@pytest.mark.parametrize("extension", range(1, 13))
def test_num_feasible_is_the_run_walk(extension):
    # Walk every (streams, d12, d23) run and add its d31 range.
    walked = sum(hi - lo + 1 for *_, lo, hi in feasible_runs(extension))
    assert max_dof(extension).num_feasible == walked == triple_loop(extension)[0]


# With the vertex test below this proves max_dof's count at every S: by
# Ehrhart's theorem it is one polynomial of degree at most 6 per residue of
# S mod 5, and S = 1..35 are seven values of each.  60..64 are one more
# value per residue.
@pytest.mark.parametrize("extension", [*range(1, 36), *range(60, 65)])
def test_max_dof_is_the_triple_loop(extension):
    count, best_total, best_triples = triple_loop(extension)
    result = max_dof(extension)
    assert result.num_feasible == count
    assert result.best_ratio == Fraction(best_total, 2 * extension)
    assert sorted({p.streams for p in result.argmax}) == sorted(
        {p for t in best_triples for p in itertools.permutations(t)})


def test_argmax_sizes_repeat_with_period_five():
    sizes = [len(max_dof(s).argmax) for s in range(1, 36)]
    assert sizes == [(9, 39, 3, 19, 1)[(s - 1) % 5] for s in range(1, 36)]


@given(st.integers(1, 10**9))
def test_the_closed_forms_hold_at_any_extension(extension):
    result = max_dof(extension)
    best_total = 12 * extension // 5
    assert result.best_ratio == Fraction(best_total, 2 * extension)
    assert len(result.argmax) == (9, 39, 3, 19, 1)[(extension - 1) % 5]
    for profile in result.argmax:
        assert check_allocation(profile).feasible
        assert sum(profile.streams) == best_total
    keys = [p.streams + p.overlaps for p in result.argmax]
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("k", range(1, 7))
def test_the_only_maximizer_at_a_multiple_of_five_is_the_scaled_five_slot_one(k):
    assert max_dof(5 * k).argmax == (AllocationProfile(5 * k, (4 * k,) * 3, (2 * k,) * 3),)


@pytest.mark.parametrize("extension", range(1, 7))
def test_best_ratio_matches_closed_form(extension):
    assert max_dof(extension).best_ratio == CLOSED_FORM[extension - 1]


def test_five_slot_maximizer_is_unique():
    result = max_dof(5)
    assert result.best_ratio == Fraction(6, 5)
    assert len(result.argmax) == 1
    best = result.argmax[0]
    assert best.streams == (4, 4, 4)
    assert best.overlaps == (2, 2, 2)
    d = result.to_dict()
    assert d["best_ratio"] == "6/5"
    assert d["num_feasible"] == 1876


_PERMS = list(itertools.permutations((1, 2, 3)))


@given(
    st.integers(1, 4),
    st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
    st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
    st.sampled_from(_PERMS),
)
def test_feasibility_is_permutation_invariant(extension, streams, overlaps, perm):
    base = AllocationProfile(extension, streams, overlaps)
    relabeled = AllocationProfile(
        extension,
        tuple(streams[perm[i] - 1] for i in range(3)),
        (
            base.overlap(perm[0], perm[1]),
            base.overlap(perm[1], perm[2]),
            base.overlap(perm[2], perm[0]),
        ),
    )
    assert check_allocation(base).feasible == check_allocation(relabeled).feasible


def test_nonpositive_extension_is_rejected():
    with pytest.raises(ValueError):
        max_dof(0)


@pytest.mark.parametrize("extension", [-1, 1.5, 2.5, "3", None, float("nan"), float("inf"), 0])
def test_every_entry_point_rejects_a_non_positive_integer_extension(extension):
    for call in (max_dof, lambda s: AllocationProfile(s, (1, 1, 1), (0, 0, 0)),
                 lambda s: ExtendedRotation(0.1, s)):
        with pytest.raises(ValueError, match="extension must be a positive integer"):
            call(extension)


def test_an_integral_float_extension_is_stored_as_int():
    profile = AllocationProfile(3.0, (2, 2, 2), (1, 1, 1))
    assert type(profile.extension) is int
    assert profile.ratio == Fraction(1)
    assert profile.to_dict() == AllocationProfile(3, (2, 2, 2), (1, 1, 1)).to_dict()
    result = max_dof(3.0)
    assert type(result.extension) is int
    assert result == max_dof(3)
    # The block rotations follow the same rule.
    rotation = ExtendedRotation(0.1, 3.0)
    assert type(rotation.extension) is int
    assert np.array_equal(rotation.matrix, np.kron(np.eye(3), rotation_matrix(0.1)))
    assert np.array_equal(rotation.matrix, ExtendedRotation(0.1, 3).matrix)


@pytest.mark.parametrize("extension", range(1, 7))
def test_max_dof_agrees_with_the_profile_iterator(extension):
    profiles = list(feasible_profiles(extension))
    result = max_dof(extension)
    assert result.num_feasible == len(profiles)
    best = max(sum(p.streams) for p in profiles)
    assert result.best_ratio == Fraction(best, 2 * extension)
    assert result.argmax == tuple(p for p in profiles if sum(p.streams) == best)


def reference_violations(profile: AllocationProfile) -> tuple[str, ...]:
    """check_allocation's constraints written out one by one."""
    d1, d2, d3 = profile.streams
    d12, d23, d31 = profile.overlaps
    two_s = 2 * profile.extension
    total = d1 + d2 + d3
    violations = []
    if d12 + d31 > d1:
        violations.append("partition-user-1")
    if d12 + d23 > d2:
        violations.append("partition-user-2")
    if d23 + d31 > d3:
        violations.append("partition-user-3")
    if total - d23 > two_s:
        violations.append("receiver-1")
    if total - d31 > two_s:
        violations.append("receiver-2")
    if total - d12 > two_s:
        violations.append("receiver-3")
    return tuple(violations)


@pytest.mark.parametrize("extension", [1, 2])
def test_constraint_vectors_are_check_allocation(extension):
    for x in itertools.product(range(2 * extension + 2), repeat=6):
        profile = AllocationProfile(extension, x[:3], x[3:])
        assert check_allocation(profile).violations == reference_violations(profile)


def combine(multipliers: dict) -> tuple[list, Fraction]:
    """The row and bound of sum(multiplier * constraint) over _CONSTRAINTS."""
    picked = [(multipliers.get(label, 0), row, bound) for label, row, bound in _CONSTRAINTS]
    row = [sum(Fraction(m) * r[k] for m, r, _ in picked) for k in range(6)]
    return row, sum(Fraction(m) * b for m, _, b in picked)


def test_six_fifths_certificate():
    # Every receiver constraint plus half of every partition constraint is a
    # nonnegative combination of valid inequalities, so 5T <= 12S holds for
    # every feasible profile at every S.
    row, bound = combine({label: 1 if label.startswith("receiver") else Fraction(1, 2)
                          for label, _, _ in _CONSTRAINTS})
    assert [2 * a for a in row] == [5, 5, 5, 0, 0, 0]
    assert 2 * bound == 12


# P is the polytope of feasible profiles at S = 1: x >= 0 and every row of
# _CONSTRAINTS.  Its lattice points at S are the feasible profiles at S.
NONNEGATIVE = [(tuple(-int(j == k) for j in range(6)), 0) for k in range(6)]
P_ROWS = [(row, bound) for _, row, bound in _CONSTRAINTS] + NONNEGATIVE
P_VERTICES = {
    (0, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0),
    (1, 1, 0, 1, 0, 0), (0, 1, 1, 0, 1, 0), (1, 0, 1, 0, 0, 1),
    tuple(Fraction(v, 5) for v in (4, 4, 4, 2, 2, 2)),
}


def solve_exactly(rows, rhs):
    """The one x with rows . x = rhs, by Gauss-Jordan elimination in Fraction,
    or None when the rows are singular."""
    m = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return tuple(row[n] for row in m)


def test_the_polytope_has_eight_vertices_with_denominators_one_and_five():
    # A vertex is a feasible point where six linearly independent rows are
    # tight.  The Ehrhart period of the count divides the lcm of the vertex
    # coordinates' denominators.
    vertices = set()
    for active in itertools.combinations(P_ROWS, 6):
        x = solve_exactly(*zip(*active))
        if x is not None and all(sum(a * v for a, v in zip(row, x)) <= b for row, b in P_ROWS):
            vertices.add(x)
    assert vertices == P_VERTICES
    assert {Fraction(v).denominator for x in vertices for v in x} == {1, 5}


# For each coordinate, nonnegative multipliers of _CONSTRAINTS whose sum has
# a nonnegative row with a coefficient of at least 1 there and a bound of at
# most 2: on x >= 0 that coordinate is then at most 2, so P is a polytope.
BOX_CERTIFICATES = (
    ("receiver-1", "partition-user-2"),
    ("receiver-2", "partition-user-3"),
    ("receiver-3", "partition-user-1"),
    ("receiver-1", "partition-user-2", "partition-user-1"),
    ("receiver-2", "partition-user-3", "partition-user-2"),
    ("receiver-3", "partition-user-1", "partition-user-3"),
)


@pytest.mark.parametrize("coordinate", range(6))
def test_the_polytope_is_bounded(coordinate):
    row, bound = combine(dict.fromkeys(BOX_CERTIFICATES[coordinate], 1))
    assert min(row) >= 0 and row[coordinate] >= 1
    assert bound <= 2


@pytest.mark.parametrize("extension", range(1, 61))
def test_six_fifths_is_reached_at_every_extension(extension):
    # The constraints are homogeneous, so a feasible profile at S mod 5 plus
    # S // 5 copies of the unique S=5 maximizer is feasible at S.
    k, r = divmod(extension, 5)
    base = max_dof(r).argmax[0] if r else AllocationProfile(1, (0, 0, 0), (0, 0, 0))
    profile = AllocationProfile(
        extension,
        tuple(d + 4 * k for d in base.streams),
        tuple(d + 2 * k for d in base.overlaps),
    )
    assert check_allocation(profile).feasible
    total = sum(profile.streams)
    assert total == 12 * extension // 5
    assert max_dof(extension).best_ratio == Fraction(total, 2 * extension)
