"""Rotation lift, channel sampling, special channels, file round trips."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from acsalign.channel import (
    NUM_CROSS_SUMS,
    TWO_PI,
    ComplexChannelMatrix,
    ExtendedRotation,
    construct_special_channel,
    dump_channel,
    implicated_receiver,
    lift,
    load_channel,
    mod_distance,
    rotation_matrix,
    sample_channel,
    special_channel_kinds,
)
from acsalign.verify import check_conditions

angles = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def test_rotation_basics():
    assert np.allclose(rotation_matrix(0.0), np.eye(2))
    quarter = rotation_matrix(np.pi / 2)
    assert np.allclose(quarter, [[0.0, -1.0], [1.0, 0.0]])
    assert np.isclose(np.linalg.det(quarter), 1.0)


def test_rotation_rejects_nonfinite():
    with pytest.raises(ValueError):
        rotation_matrix(np.nan)
    with pytest.raises(ValueError, match="phase must be finite"):
        ExtendedRotation(np.nan, 2)


@given(angles, angles)
def test_rotation_group_law(a, b):
    left = rotation_matrix(a) @ rotation_matrix(b)
    assert np.allclose(left, rotation_matrix(a + b), atol=1e-12)


@given(angles, st.integers(min_value=1, max_value=4))
def test_extension_is_blockwise(phi, S):
    ext = ExtendedRotation(phi, S)
    assert np.allclose(ext.matrix, np.kron(np.eye(S), rotation_matrix(phi)))
    assert np.allclose(ext.matrix @ ExtendedRotation(-phi, S).matrix, np.eye(2 * S), atol=1e-12)


@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), st.integers(min_value=1, max_value=8))
@example(0.0, 1)
@example(np.pi / 2, 5)
@example(np.pi, 8)
@example(-2.5, 3)
@example(123456.789, 5)
def test_extension_is_the_kron_lift_bit_for_bit(phi, S):
    # array_equal counts -0.0 equal to 0.0: the off-block zeros may differ in sign.
    assert np.array_equal(ExtendedRotation(phi, S).matrix, np.kron(np.eye(S), rotation_matrix(phi)))


def test_link_rotations_are_built_once_and_read_only():
    chn = sample_channel(11, 3, 2)
    lifted = chn.link_rotations(4)
    assert len(lifted) == 2 and all(len(row) == 3 for row in lifted)
    for rx in range(2):
        for tx in range(3):
            assert np.array_equal(lifted[rx][tx], ExtendedRotation(chn.phase[rx, tx], 4).matrix)
            assert not lifted[rx][tx].flags.writeable
    assert chn.link_rotations(4) is lifted
    assert chn.link_rotations(1)[1][2].shape == (2, 2)


def test_channel_with_cached_rotations_pickles():
    chn = sample_channel(5, 3, 3)
    fresh = len(pickle.dumps(sample_channel(5, 3, 3)))
    lifted = chn.link_rotations(5)
    check_conditions(chn, "acs-ic3")
    data = pickle.dumps(chn)
    # Only the two grids travel: cached rotations and condition reports are
    # rebuilt on first use.
    assert len(data) == fresh
    copy = pickle.loads(data)
    assert copy == chn
    assert np.array_equal(copy.magnitude, chn.magnitude)
    assert np.array_equal(copy.phase, chn.phase)
    assert not copy.magnitude.flags.writeable and not copy.phase.flags.writeable
    for row, copied_row in zip(lifted, copy.link_rotations(5)):
        for m, copied in zip(row, copied_row):
            assert np.array_equal(m, copied)
            assert not copied.flags.writeable


def test_channels_compare_and_hash_by_value():
    a, b = sample_channel(1, 3, 3), sample_channel(1, 3, 3)
    assert a is not b and a == b and hash(a) == hash(b)
    other = sample_channel(2, 3, 3)
    assert a != other and a != sample_channel(1, 2, 3)
    assert a != "channel"
    assert {a, b, other} == {a, other}
    assert len({a, b, other}) == 2
    # A negative zero is the same gain as zero.
    zero = ComplexChannelMatrix(np.zeros((2, 2)), np.zeros((2, 2)))
    negative_zero = ComplexChannelMatrix(np.full((2, 2), -0.0), np.zeros((2, 2)))
    assert zero == negative_zero and hash(zero) == hash(negative_zero)


@given(angles, angles)
def test_extension_compose(a, b):
    x = ExtendedRotation(a, 3)
    y = ExtendedRotation(b, 3)
    assert np.allclose(ExtendedRotation(a + b, 3).matrix, x.matrix @ y.matrix, atol=1e-12)


@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_lift_interleaves_real_and_imaginary_parts(values):
    z = np.array(values)
    lifted = lift(z)
    assert lifted.shape == (2 * z.size,)
    assert np.array_equal(lifted[0::2], z.real) and np.array_equal(lifted[1::2], z.imag)


@given(angles, st.lists(st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False),
                        min_size=2, max_size=2))
def test_lifted_rotation_is_complex_multiplication(phi, values):
    z = np.array(values)
    rotated = ExtendedRotation(phi, z.size).matrix @ lift(z)
    assert np.allclose(rotated, lift(np.exp(1j * phi) * z), atol=1e-9)


@given(angles)
def test_mod_distance_range(x):
    d = mod_distance(x, np.pi)
    assert 0.0 <= d <= np.pi / 2 + 1e-12


@given(angles, st.integers(min_value=-3, max_value=3))
def test_mod_distance_periodic(x, k):
    assert np.isclose(mod_distance(x + k * np.pi, np.pi), mod_distance(x, np.pi), atol=1e-9)


def test_mod_distance_known_values():
    assert mod_distance(0.0, np.pi) == 0.0
    assert np.isclose(mod_distance(np.pi / 2, np.pi), np.pi / 2)
    assert np.isclose(mod_distance(3.5 * np.pi, np.pi), np.pi / 2)
    assert np.isclose(mod_distance(-0.1, TWO_PI), 0.1)
    # A non-finite angle or modulus raises instead of returning NaN.
    for args, message in (((np.nan,), "angle must be finite, got nan"),
                          ((np.inf, TWO_PI), "angle must be finite, got inf"),
                          ((1.0, np.nan), "modulus must be positive, got nan"),
                          ((1.0, 0.0), "modulus must be positive, got 0.0")):
        with pytest.raises(ValueError, match=message):
            mod_distance(*args)


@given(st.floats(min_value=-1e3, max_value=1e3))
@example(-1e-17)
@example(-5e-324)
@example(-TWO_PI)
def test_stored_phases_lie_in_zero_to_two_pi(phi):
    # np.mod alone rounds a tiny negative phase up to 2pi itself.
    phase = ComplexChannelMatrix(np.ones((1, 1)), [[phi]]).phase[0, 0]
    assert 0.0 <= phase < TWO_PI


def test_sampling_is_deterministic():
    a = sample_channel(42, 3, 3)
    b = sample_channel(42, 3, 3)
    c = sample_channel(43, 3, 3)
    assert np.array_equal(a.magnitude, b.magnitude)
    assert np.array_equal(a.phase, b.phase)
    assert not np.array_equal(a.phase, c.phase)


def test_sampling_accepts_seed_sequences():
    a = sample_channel([7, 1], 2, 2)
    b = sample_channel([7, 2], 2, 2)
    assert not np.array_equal(a.phase, b.phase)


def test_sampled_channel_shape_and_ranges():
    chn = sample_channel(0, 4, 2)
    assert chn.magnitude.shape == (2, 4)
    assert chn.num_tx == 4 and chn.num_rx == 2
    assert np.all(chn.magnitude > 0)
    assert np.all((chn.phase >= 0) & (chn.phase < TWO_PI))


def test_sampled_phases_look_uniform():
    # Mean of n uniform draws on [0, 2pi) concentrates at pi with sigma = (2pi/sqrt(12))/sqrt(n).
    n = 10_000
    phases = np.concatenate([sample_channel(s, 10, 10).phase.ravel() for s in range(100)])
    assert phases.size == n
    sigma = TWO_PI / np.sqrt(12.0) / np.sqrt(n)
    assert abs(phases.mean() - np.pi) < 3 * sigma


def test_channel_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ComplexChannelMatrix(np.ones((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ComplexChannelMatrix(-np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        sample_channel(0, 0, 3)
    with pytest.raises(ValueError, match="2-d array"):
        ComplexChannelMatrix(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="at least one receiver"):
        ComplexChannelMatrix(np.ones((0, 3)), np.zeros((0, 3)))


def test_coefficient_round_trip():
    chn = sample_channel(5, 3, 3)
    again = ComplexChannelMatrix.from_coefficients(chn.coefficients)
    assert np.allclose(again.magnitude, chn.magnitude)
    assert np.allclose(again.phase, chn.phase)


def test_phase_example_channel():
    chn = construct_special_channel("phase-example")
    assert np.array_equal(chn.magnitude, np.ones((3, 3)))
    assert np.allclose(np.diag(chn.phase), 0.0)
    off = chn.phase[~np.eye(3, dtype=bool)]
    assert np.allclose(off, np.pi / 2)


def test_plus_minus_one_channel():
    chn = construct_special_channel("plus-minus-one")
    assert np.array_equal(chn.magnitude, np.ones((3, 3)))
    assert np.allclose(np.diag(chn.phase), 0.0)
    assert np.allclose(chn.phase[~np.eye(3, dtype=bool)], np.pi)


def test_special_kind_listing_is_complete():
    kinds = special_channel_kinds()
    assert "phase-example" in kinds and "all-ones" in kinds
    assert len([k for k in kinds if k.startswith("acs-violating-")]) == NUM_CROSS_SUMS
    assert len([k for k in kinds if k.startswith("singular-")]) == NUM_CROSS_SUMS
    for kind in kinds:
        assert construct_special_channel(kind).magnitude.shape == (3, 3)
    # Exactly the listed names build: no other spelling of an index is parsed.
    listing = re.escape(", ".join(kinds))
    for kind in ("no-such-channel", "acs-violating-01", "singular-+1", "acs-violating- 1",
                 "acs-violating-7", "singular-0"):
        with pytest.raises(ValueError, match=f"unknown special channel kind {re.escape(repr(kind))}; "
                                             f"choose from {listing}$"):
            construct_special_channel(kind)


@pytest.mark.parametrize("idx", range(1, NUM_CROSS_SUMS + 1))
def test_violating_channel_zeroes_its_own_sum(idx):
    chn = construct_special_channel(f"acs-violating-{idx}")
    records = check_conditions(chn, "acs-ic3").records
    assert mod_distance(records[idx - 1].value, TWO_PI) < 1e-12
    # The construction only touches one diagonal phase, so the base draw keeps
    # the other five sums comfortably away from the degenerate set.
    others = [mod_distance(records[k].value, np.pi)
              for k in range(NUM_CROSS_SUMS) if k != idx - 1]
    assert min(others) > 0.5


@pytest.mark.parametrize("idx", range(1, NUM_CROSS_SUMS + 1))
def test_singular_channel_matches_phase_and_gain(idx):
    record = check_conditions(construct_special_channel(f"singular-{idx}"), "singularity").records[idx - 1]
    assert mod_distance(record.value, TWO_PI) < 1e-12
    assert abs(record.magnitude_ratio - 1.0) < 1e-12


def test_implicated_receiver_pairs_up():
    assert [implicated_receiver(k) for k in range(NUM_CROSS_SUMS)] == [0, 0, 1, 1, 2, 2]
    with pytest.raises(ValueError):
        implicated_receiver(NUM_CROSS_SUMS)


def test_dump_load_round_trip(tmp_path):
    chn = sample_channel(11, 4, 2)
    path = tmp_path / "chan.txt"
    dump_channel(chn, path)
    back = load_channel(path)
    assert np.array_equal(back.magnitude, chn.magnitude)
    assert np.array_equal(back.phase, chn.phase)


def test_load_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 1\n1 1 1.0 0.0\n1 1 1.0 0.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: expected 1 link")):
        load_channel(p)
    p.write_text("1 2\n1 1 1.0 0.0\n1 1 1.0 0.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: duplicate link")):
        load_channel(p)
    p.write_text("1 1\n2 1 1.0 0.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: link indices out of range")):
        load_channel(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_channel(p)
    for header in ("3 x", "-1 3"):
        p.write_text(f"{header}\n1 1 1.0 0.0\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: header must hold two positive integers"):
            load_channel(p)
    for line in ("1.5 1 1.0 0.0", "1 1 abc 0.0"):
        p.write_text(f"1 1\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: bad link line: {line!r}")):
            load_channel(p)
    for line, problem in (("1 1 nan 0.0", "channel entries must be finite"),
                          ("1 1 1.0 inf", "channel entries must be finite"),
                          ("1 1 -1.0 0.0", "magnitudes must be nonnegative")):
        p.write_text(f"1 1\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: {problem}")):
            load_channel(p)
    p.write_bytes("1 1\n# gain in µW\n1 1 1.0 0.0\n".encode())
    with pytest.raises(ValueError, match=re.escape(f"{p}: not an ASCII channel file (byte 0xc2 at offset 14)")):
        load_channel(p)


def test_channel_arrays_are_read_only():
    chn = sample_channel(0, 3, 3)
    with pytest.raises(ValueError):
        chn.phase[0, 0] = 1.0
