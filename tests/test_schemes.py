"""Beamformer builders: geometry, feasibility gating, determinism, validation."""

from fractions import Fraction

import numpy as np
import pytest

from acsalign.channel import (
    ComplexChannelMatrix,
    ExtendedRotation,
    construct_special_channel,
    sample_channel,
)
from acsalign.rates import rate_reports
from acsalign.schemes import (
    CANDIDATE_DRAWS,
    GENERIC_PHASE_MARGIN,
    SCHEME_TAGS,
    AlignmentPair,
    BeamformerSet,
    build_acs_ic3,
    build_cognitive_x,
    build_phase_alignment,
    build_scheme,
    build_uplinks,
    build_x_channel,
    sample_feasible_channel,
    scheme_spec,
)
from acsalign.verify import (
    InfeasibleChannelError,
    alignment_residual,
    check_conditions,
    independence_margin,
)

EXPECTED_DOF = {
    "phase-align": Fraction(3, 2),
    "acs-ic3": Fraction(6, 5),
    "x-channel": Fraction(4, 3),
    "cognitive-x": Fraction(3, 2),
    "uplinks": Fraction(4, 3),
}

EXPECTED_STREAMS = {
    "phase-align": (1, 1, 1),
    "acs-ic3": (4, 4, 4),
    "x-channel": (4, 4),
    "cognitive-x": (2, 1),
    "uplinks": (2, 2, 2, 2),
}

EXPECTED_EXTENSION = {
    "phase-align": 1,
    "acs-ic3": 5,
    "x-channel": 3,
    "cognitive-x": 1,
    "uplinks": 3,
}


def channel_for(tag: str, seed: int = 0) -> ComplexChannelMatrix:
    if tag == "phase-align":
        return construct_special_channel("phase-example")
    return sample_feasible_channel(tag, seed)


@pytest.mark.parametrize("tag", SCHEME_TAGS)
def test_descriptor_matches_the_construction(tag):
    bf = build_scheme(tag, channel_for(tag), seed=0)
    desc = bf.descriptor
    assert desc.scheme == tag
    assert desc.dof == EXPECTED_DOF[tag]
    assert desc.streams_per_tx == EXPECTED_STREAMS[tag]
    assert desc.extension == EXPECTED_EXTENSION[tag]
    assert desc.feasibility == scheme_spec(tag).feasibility
    assert desc.to_dict()["dof"] == str(EXPECTED_DOF[tag])


@pytest.mark.parametrize("tag", SCHEME_TAGS)
def test_alignments_hold_and_streams_stay_independent(tag):
    chn = channel_for(tag, seed=4)
    bf = build_scheme(tag, chn, seed=4)
    assert alignment_residual(bf, chn) < 1e-12
    assert independence_margin(bf, chn).all_independent


@pytest.mark.parametrize("tag", SCHEME_TAGS)
def test_channel_shape_is_enforced(tag):
    num_rx, num_tx = scheme_spec(tag).shape
    wrong = sample_channel(0, num_tx + 1, num_rx)
    with pytest.raises(ValueError):
        build_scheme(tag, wrong)


def test_infeasible_channel_names_every_failed_condition():
    with pytest.raises(InfeasibleChannelError) as exc:
        build_acs_ic3(construct_special_channel("plus-minus-one"), seed=0)
    assert exc.value.scheme == "acs-ic3"
    assert exc.value.failed == ("rx1-a", "rx1-b", "rx2-a", "rx2-b", "rx3-a", "rx3-b")


def test_random_channels_fail_the_closure_gate():
    with pytest.raises(InfeasibleChannelError) as exc:
        build_phase_alignment(sample_channel(0, 3, 3))
    assert "closure" in exc.value.failed


def test_all_ones_channel_fails_the_separation_gates():
    with pytest.raises(InfeasibleChannelError) as exc:
        build_phase_alignment(construct_special_channel("all-ones"))
    assert exc.value.failed == ("rx1-separation", "rx2-separation", "rx3-separation")


def test_disconnected_channel_is_rejected():
    base = sample_channel(0, 3, 3)
    mag = base.magnitude.copy()
    mag[1, 2] = 0.0
    with pytest.raises(InfeasibleChannelError) as exc:
        build_acs_ic3(ComplexChannelMatrix(mag, base.phase.copy()), seed=0)
    assert exc.value.failed == ("fully-connected",)


def test_check_flag_lets_a_violating_build_through():
    chn = construct_special_channel("acs-violating-2")
    with pytest.raises(InfeasibleChannelError):
        build_acs_ic3(chn, seed=0)
    bf = build_acs_ic3(chn, seed=0, check=False)
    # The geometry still aligns; only the independence collapses.
    assert alignment_residual(bf, chn) < 1e-12
    assert not independence_margin(bf, chn).all_independent


@pytest.mark.parametrize("tag", ["acs-ic3", "x-channel", "uplinks"])
def test_builds_are_deterministic_in_the_seed(tag):
    chn = channel_for(tag, seed=5)
    a = build_scheme(tag, chn, seed=11)
    b = build_scheme(tag, chn, seed=11)
    c = build_scheme(tag, chn, seed=12)
    for ma, mb in zip(a.matrices, b.matrices):
        assert np.array_equal(ma, mb)
    assert any(not np.array_equal(ma, mc) for ma, mc in zip(a.matrices, c.matrices))


def test_candidate_scoring_never_does_worse_than_one_draw():
    chn = sample_feasible_channel("acs-ic3", 86)
    single = build_acs_ic3(chn, seed=86, draws=1)
    best = build_acs_ic3(chn, seed=86, draws=CANDIDATE_DRAWS)

    def worst_sv(bf):
        report = independence_margin(bf, chn)
        return min(r.singular_values[-1] for r in report.receivers)

    assert worst_sv(best) >= worst_sv(single)


def test_zero_draws_is_an_error():
    chn = sample_feasible_channel("acs-ic3", 0)
    with pytest.raises(ValueError):
        build_acs_ic3(chn, seed=0, draws=0)


def test_interference_basis_deduplicates_aligned_streams():
    chn = sample_feasible_channel("acs-ic3", 2)
    bf = build_acs_ic3(chn, seed=2)
    for rx in range(3):
        assert len(bf.desired_streams(rx)) == 4
        # Eight interfering streams collapse onto six distinct directions.
        assert len(bf.interference_basis(rx)) == 6


def test_cognitive_side_information_empties_one_basis():
    chn = sample_feasible_channel("cognitive-x", 1)
    bf = build_cognitive_x(chn)
    assert bf.interference_basis(1) == ()
    assert bf.interference_basis(0) == ((0, 1),)


def test_streams_enumerates_in_transmitter_major_order():
    chn = sample_feasible_channel("uplinks", 3)
    bf = build_uplinks(chn, seed=3)
    triples = bf.streams()
    assert len(triples) == 8
    assert triples[0] == (0, 0, 0)
    assert triples[-1] == (3, 1, 1)
    assert bf.num_tx == 4 and bf.num_rx == 2


def test_unknown_scheme_tag_raises():
    with pytest.raises(ValueError):
        build_scheme("mystery", sample_channel(0, 3, 3))
    with pytest.raises(ValueError):
        scheme_spec("mystery")
    # The baseline entry fixes a sweep's channels but builds no beamformers.
    with pytest.raises(ValueError, match="no beamformed streams"):
        build_scheme("baseline", sample_channel(0, 3, 3))


def _tiny_set(matrix, shares=(0.5, 0.5), rxs=(0, 1)):
    return BeamformerSet(
        scheme="x-channel",
        extension=1,
        matrices=(matrix, np.eye(2)),
        stream_rx=(rxs, (0, 1)),
        power_share=(np.asarray(shares, dtype=float), np.array([0.5, 0.5])),
        alignments=(),
    )


def test_beamformer_validation_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unit norm"):
        _tiny_set(np.eye(2) * 2.0)
    with pytest.raises(ValueError, match="linearly dependent"):
        _tiny_set(np.column_stack([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="metadata"):
        _tiny_set(np.eye(2), rxs=(0, 1, 0))
    with pytest.raises(ValueError, match="power shares"):
        _tiny_set(np.eye(2), shares=(0.9, 0.9))
    with pytest.raises(ValueError, match="power shares"):
        _tiny_set(np.eye(2), shares=(-0.1, 0.5))
    with pytest.raises(ValueError, match="extension"):
        BeamformerSet(
            scheme="x-channel",
            extension=0,
            matrices=(np.eye(2),),
            stream_rx=((0, 1),),
            power_share=(np.array([0.5, 0.5]),),
            alignments=(),
        )
    with pytest.raises(ValueError, match="lengths disagree"):
        BeamformerSet(
            scheme="x-channel",
            extension=1,
            matrices=(np.eye(2),),
            stream_rx=((0, 1), (0, 1)),
            power_share=(np.array([0.5, 0.5]),),
            alignments=(),
        )


def test_beamformer_matrices_are_frozen():
    bf = build_x_channel(sample_feasible_channel("x-channel", 0), seed=0)
    with pytest.raises(ValueError):
        bf.matrices[0][0, 0] = 2.0


def test_alignment_pair_records_roles():
    pair = AlignmentPair(rx=1, kept=(0, 0), dropped=(2, 2))
    assert pair.rx == 1 and not pair.up_to_sign


@pytest.mark.parametrize("tag", ["acs-ic3", "x-channel", "cognitive-x", "uplinks"])
def test_feasible_sampler_keeps_a_margin(tag):
    for seed in range(5):
        chn = sample_feasible_channel(tag, seed)
        spec = scheme_spec(tag)
        assert chn.magnitude.shape == spec.shape
        report = check_conditions(chn, spec.feasibility)
        assert min(rec.distance for rec in report.records) >= GENERIC_PHASE_MARGIN


def test_feasible_sampler_is_deterministic_and_usually_plain():
    a = sample_feasible_channel("acs-ic3", 7)
    b = sample_feasible_channel("acs-ic3", 7)
    assert np.array_equal(a.magnitude, b.magnitude)
    assert np.array_equal(a.phase, b.phase)
    # A comfortably generic draw passes attempt 0 and comes back unchanged.
    plain = sample_channel(7, 3, 3)
    assert np.array_equal(a.magnitude, plain.magnitude)
    assert np.array_equal(a.phase, plain.phase)


def test_feasible_sampler_rejects_the_closure_gated_scheme():
    with pytest.raises(ValueError):
        sample_feasible_channel("phase-align", 0)


def test_feasible_sampler_margin_bounds():
    with pytest.raises(ValueError):
        sample_feasible_channel("acs-ic3", 0, min_margin=-1.0)
    with pytest.raises(InfeasibleChannelError) as exc:
        sample_feasible_channel("acs-ic3", 0, min_margin=np.pi, max_attempts=3)
    assert exc.value.failed == ("margin",)


def test_phase_alignment_build_is_parameterless_and_exact():
    chn = construct_special_channel("phase-example")
    bf = build_phase_alignment(chn)
    assert np.allclose(bf.matrices[0][:, 0], [1.0, 0.0])
    assert alignment_residual(bf, chn) < 1e-15
    # One coincidence per receiver, the closure-derived one only up to sign.
    assert tuple(p.up_to_sign for p in bf.alignments) == (False, False, True)


@pytest.fixture
def rotation_builds(monkeypatch):
    """Every ExtendedRotation.matrix build made while the test runs."""
    builds = []
    build = ExtendedRotation.matrix.fget

    def counted(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(ExtendedRotation, "matrix", property(counted))
    return builds


def test_each_rotation_is_built_once_per_channel(rotation_builds):
    # acs-ic3: nine link rotations shared by the candidate scoring and the
    # rates, and six derivation rotations shared by the candidate draws.
    chn = sample_feasible_channel("acs-ic3", 4)
    rate_reports(build_acs_ic3(chn, seed=4), chn, [1e6, 1e9])
    assert len(rotation_builds) == 15
    rotation_builds.clear()
    # x-channel: four links and two derivation groups of two pairs each.
    build_x_channel(sample_feasible_channel("x-channel", 4), seed=4)
    assert len(rotation_builds) == 6
