"""Exact allocation-counting bound: enumeration, feasibility, extremal ratios."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acsalign.bound import (
    MAX_EXTENSION,
    AllocationProfile,
    _feasible_runs,
    _overlap_count,
    check_allocation,
    iter_feasible_profiles,
    max_dof,
)
from acsalign.channel import ExtendedRotation, rotation_matrix

# Best ratio by extension, from the receiver-dimension and partition counting:
# the total is capped at 2S plus the largest jointly realizable overlap budget.
CLOSED_FORM = [Fraction(2 * s + (2 * s) // 5, 2 * s) for s in range(1, 11)]


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
    enumerated = {(p.streams, p.overlaps) for p in iter_feasible_profiles(extension)}
    assert enumerated == brute_force_profiles(extension)


def test_enumeration_yields_no_duplicates():
    profiles = list(iter_feasible_profiles(3))
    assert len(profiles) == len({(p.streams, p.overlaps) for p in profiles})


@pytest.mark.parametrize("extension,count", [(1, 13), (2, 71), (3, 262), (4, 761), (5, 1876),
                                             (MAX_EXTENSION, 17_991_729)])
def test_feasible_profile_counts(extension, count):
    assert max_dof(extension).num_feasible == count


def test_overlap_count_matches_a_direct_loop():
    for a in itertools.product(range(11), repeat=3):
        direct = sum(1 for x, y, z in itertools.product(range(11), repeat=3)
                     if x + z <= a[0] and x + y <= a[1] and y + z <= a[2])
        assert _overlap_count(*a) == direct, a
    for a in ((-1, 0, 0), (3, -1, 5), (4, 4, -2)):
        assert _overlap_count(*a) == 0


@pytest.mark.parametrize("extension", range(1, 13))
def test_num_feasible_is_the_run_walk(extension):
    # The oracle walks every (streams, d12, d23) run and adds its d31 range.
    walked = sum(hi - lo + 1 for *_, lo, hi in _feasible_runs(extension))
    assert max_dof(extension).num_feasible == walked


def test_argmax_sizes_repeat_with_period_five_up_to_the_cap():
    sizes = [len(max_dof(s).argmax) for s in range(1, MAX_EXTENSION + 1)]
    assert sizes == [(9, 39, 3, 19, 1)[(s - 1) % 5] for s in range(1, MAX_EXTENSION + 1)]


@pytest.mark.parametrize("k", range(1, MAX_EXTENSION // 5 + 1))
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
        list(iter_feasible_profiles(0))
    with pytest.raises(ValueError):
        max_dof(0)


@pytest.mark.parametrize("call", [max_dof, iter_feasible_profiles])
def test_an_extension_past_the_cap_is_rejected_when_called(call):
    # iter_feasible_profiles raises on the call itself, before any profile.
    with pytest.raises(ValueError, match=f"extension must be at most {MAX_EXTENSION}"):
        call(MAX_EXTENSION + 1)


def test_the_enumeration_at_the_cap_starts_with_the_all_zero_profile():
    first = next(iter_feasible_profiles(MAX_EXTENSION))
    assert first == AllocationProfile(MAX_EXTENSION, (0, 0, 0), (0, 0, 0))


@pytest.mark.parametrize("extension", [-1, 1.5, 2.5, "3", None, float("nan"), float("inf"), 0])
def test_every_entry_point_rejects_a_non_positive_integer_extension(extension):
    for call in (max_dof, lambda s: list(iter_feasible_profiles(s)),
                 lambda s: AllocationProfile(s, (1, 1, 1), (0, 0, 0)),
                 lambda s: ExtendedRotation(0.1, s)):
        with pytest.raises(ValueError, match="extension must be a positive integer"):
            call(extension)


def test_an_integral_float_extension_is_stored_as_int():
    profile = AllocationProfile(3.0, (2, 2, 2), (1, 1, 1))
    assert type(profile.extension) is int
    assert profile.ratio == Fraction(1)
    assert profile.to_dict() == AllocationProfile(3, (2, 2, 2), (1, 1, 1)).to_dict()
    assert list(iter_feasible_profiles(2.0)) == list(iter_feasible_profiles(2))
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
    profiles = list(iter_feasible_profiles(extension))
    result = max_dof(extension)
    assert result.num_feasible == len(profiles)
    best = max(sum(p.streams) for p in profiles)
    assert result.best_ratio == Fraction(best, 2 * extension)
    assert result.argmax == tuple(p for p in profiles if sum(p.streams) == best)


# The six constraints of check_allocation as coefficient vectors over
# (d1, d2, d3, d12, d23, d31) and a bound in units of S: row . x <= bound * S.
CONSTRAINTS = {
    "partition-user-1": ((-1, 0, 0, 1, 0, 1), 0),
    "partition-user-2": ((0, -1, 0, 1, 1, 0), 0),
    "partition-user-3": ((0, 0, -1, 0, 1, 1), 0),
    "receiver-1": ((1, 1, 1, 0, -1, 0), 2),
    "receiver-2": ((1, 1, 1, 0, 0, -1), 2),
    "receiver-3": ((1, 1, 1, -1, 0, 0), 2),
}


@pytest.mark.parametrize("extension", [1, 2])
def test_constraint_vectors_are_check_allocation(extension):
    for x in itertools.product(range(2 * extension + 2), repeat=6):
        profile = AllocationProfile(extension, x[:3], x[3:])
        violated = tuple(label for label, (row, bound) in CONSTRAINTS.items()
                         if sum(a * v for a, v in zip(row, x)) > bound * extension)
        assert check_allocation(profile).violations == violated


def test_six_fifths_certificate():
    # Every receiver constraint plus half of every partition constraint is a
    # nonnegative combination of valid inequalities, so 5T <= 12S holds for
    # every feasible profile at every S.
    multipliers = {label: Fraction(1) if label.startswith("receiver") else Fraction(1, 2)
                   for label in CONSTRAINTS}
    row = [sum(multipliers[label] * r[k] for label, (r, _) in CONSTRAINTS.items()) for k in range(6)]
    bound = sum(multipliers[label] * b for label, (_, b) in CONSTRAINTS.items())
    assert [2 * a for a in row] == [5, 5, 5, 0, 0, 0]
    assert 2 * bound == 12


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
    if extension <= MAX_EXTENSION:
        assert max_dof(extension).best_ratio == Fraction(total, 2 * extension)
