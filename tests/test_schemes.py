"""Beamformer builders: geometry, feasibility gating, determinism, validation."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from acsalign import schemes, verify
from acsalign.channel import (
    ComplexChannelMatrix,
    ExtendedRotation,
    construct_special_channel,
    sample_channel,
)
from acsalign.rates import estimate_dof, sum_rate
from acsalign.schemes import (
    GENERIC_PHASE_MARGIN,
    SCHEME_TAGS,
    SCHEMES,
    AlignmentPair,
    BeamformerSet,
    SchemeSpec,
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
    desc = scheme_spec(tag).descriptor()
    assert list(desc) == ["scheme", "extension", "streams_per_tx", "dof", "feasibility"]
    assert desc["scheme"] == tag
    assert desc["dof"] == str(EXPECTED_DOF[tag])
    assert desc["streams_per_tx"] == list(EXPECTED_STREAMS[tag])
    assert desc["extension"] == EXPECTED_EXTENSION[tag]
    assert desc["feasibility"] == scheme_spec(tag).feasibility
    # The built columns carry the layout the spec describes.
    bf = build_scheme(tag, channel_for(tag), seed=0)
    assert [m.shape[1] for m in bf.matrices] == desc["streams_per_tx"]


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


def test_connectivity_comes_from_the_gate_row():
    # A new entry gated by the acs-ic3 row needs no flag of its own to reject a
    # disconnected channel.
    spec = replace(SCHEMES["acs-ic3"], tag="acs-ic3-copy")
    base = sample_channel(0, 3, 3)
    mag = base.magnitude.copy()
    mag[1, 2] = 0.0
    chn = ComplexChannelMatrix(mag, base.phase.copy())
    assert spec.gate(chn)[1] == ("fully-connected",)
    with pytest.raises(InfeasibleChannelError) as exc:
        schemes._build(spec, chn, seed=0)
    assert exc.value.failed == ("fully-connected",)
    # A row without the requirement leaves a zero link to its phase conditions.
    assert "fully-connected" not in scheme_spec("phase-align").gate(chn)[1]


def test_a_transmitter_without_streams_builds_and_rates():
    # A bound maximizer at S = 2: users 1 and 3 send two streams each, user 2 none.
    spec = SchemeSpec("idle-user", "acs-ic3", extension=2, stream_rx=((1, 1), (), (0, 0)),
                      free_blocks=((0, (0, 1)), (2, (0, 1))))
    chn = sample_feasible_channel("acs-ic3", 0)
    bf = schemes._build(spec, chn, seed=0)
    assert [m.shape for m in bf.matrices] == [(4, 2), (4, 0), (4, 2)]
    assert independence_margin(bf, chn).all_independent
    report = sum_rate(bf, chn, 1e9)
    assert report.per_receiver[2] == 0.0 and report.sum_rate > 0.0
    assert spec.descriptor()["streams_per_tx"] == [2, 0, 2]


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


def test_candidate_scoring_never_does_worse_than_one_draw(monkeypatch):
    chn = sample_feasible_channel("acs-ic3", 86)
    best = build_acs_ic3(chn, seed=86)
    monkeypatch.setattr(schemes, "CANDIDATE_DRAWS", 1)
    single = build_acs_ic3(chn, seed=86)

    def worst_sv(bf):
        report = independence_margin(bf, chn)
        return min(r.singular_values[-1] for r in report.receivers)

    assert worst_sv(best) >= worst_sv(single)


def test_interference_basis_deduplicates_aligned_streams():
    chn = sample_feasible_channel("acs-ic3", 2)
    bf = build_acs_ic3(chn, seed=2)
    for rx in range(3):
        assert len(bf.spec.desired_streams(rx)) == 4
        # Eight interfering streams collapse onto six distinct directions.
        assert len(bf.spec.interference_basis(rx)) == 6


def test_cognitive_side_information_empties_one_basis():
    chn = sample_feasible_channel("cognitive-x", 1)
    bf = build_cognitive_x(chn)
    assert bf.spec.interference_basis(1) == ()
    assert bf.spec.interference_basis(0) == ((0, 1),)


def test_streams_enumerates_in_transmitter_major_order():
    chn = sample_feasible_channel("uplinks", 3)
    bf = build_uplinks(chn, seed=3)
    triples = bf.spec.streams()
    assert len(triples) == 8
    assert triples[0] == (0, 0, 0)
    assert triples[-1] == (3, 1, 1)
    assert len(bf.matrices) == 4 and bf.spec.shape == (2, 4)


def test_unknown_scheme_tag_raises():
    with pytest.raises(ValueError):
        build_scheme("mystery", sample_channel(0, 3, 3))
    with pytest.raises(ValueError):
        scheme_spec("mystery")
    # The baseline entry fixes a sweep's channels but builds no beamformers.
    with pytest.raises(ValueError, match="no beamformed streams"):
        build_scheme("baseline", sample_channel(0, 3, 3))


def test_beamformer_validation_rejects_bad_inputs():
    # x-channel: two transmitters, four streams each, over 3 slots (6 real rows).
    spec = scheme_spec("x-channel")
    good = np.eye(6)[:, :4]
    BeamformerSet(spec, (good, good))
    with pytest.raises(ValueError, match="has 2 transmitters, not 1"):
        BeamformerSet(spec, (good,))
    with pytest.raises(ValueError, match="expected a 6x4 column matrix"):
        BeamformerSet(spec, (good, good[:, :3]))
    with pytest.raises(ValueError, match="expected a 6x4 column matrix"):
        BeamformerSet(spec, (good, np.eye(4)))
    with pytest.raises(ValueError, match="unit norm"):
        BeamformerSet(spec, (good, good * 2.0))
    with pytest.raises(ValueError, match="linearly dependent"):
        BeamformerSet(spec, (good, np.column_stack([good[:, :3], good[:, 0]])))


@pytest.mark.parametrize("scale, accepted", [(1 + 1e-13, True), (1 + 1e-6, False), (np.nan, False)])
def test_unit_norm_check_holds_columns_to_1e_12(scale, accepted):
    # The tolerance is absolute: a norm of 1 + 1e-6 fails it, relative slack or not.
    spec = scheme_spec("x-channel")
    scaled = np.eye(6)[:, :4].copy()
    scaled[:, 1] *= scale
    if accepted:
        BeamformerSet(spec, (scaled, np.eye(6)[:, 2:6]))
    else:
        with pytest.raises(ValueError, match="unit norm"):
            BeamformerSet(spec, (scaled, np.eye(6)[:, 2:6]))


@pytest.mark.parametrize("tag", SCHEME_TAGS)
def test_scheme_entry_is_a_complete_recipe(tag):
    spec = SCHEMES[tag]
    num_rx, num_tx = spec.shape
    assert len(spec.stream_rx) == num_tx
    assert all(0 <= rx < num_rx for rxs in spec.stream_rx for rx in rxs)
    streams = {(t, c) for t, c, _ in spec.streams()}
    # Every stream comes from exactly one source, and a pair derives only
    # from a column that already exists.
    made = [(tx, c) for tx, cols in spec.free_blocks for c in cols]
    made += [key for key, _ in spec.fixed_columns]
    for pair in spec.alignments:
        for side in (pair.kept, pair.dropped):
            assert side in streams
            assert spec.stream_rx[side[0]][side[1]] != pair.rx
        if not pair.up_to_sign:
            assert pair.kept in made
            made.append(pair.dropped)
    assert sorted(made) == sorted(streams)


def test_build_validates_only_the_winner(monkeypatch):
    validated = []
    post_init = BeamformerSet.__post_init__

    def counted(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(BeamformerSet, "__post_init__", counted)
    bf = build_acs_ic3(sample_feasible_channel("acs-ic3", 0), seed=0)
    assert len(validated) == 1 and validated[0] is bf


def test_beamformer_sets_compare_and_hash_by_value():
    chn = sample_feasible_channel("x-channel", 0)
    a, b = build_x_channel(chn, seed=0), build_x_channel(chn, seed=0)
    assert a is not b and a == b and hash(a) == hash(b)
    other = build_x_channel(chn, seed=1)
    assert a != other and len({a, b, other}) == 2
    assert BeamformerSet(scheme_spec("x-channel"), a.matrices) == a
    # Equal columns under another spec are another set.
    assert BeamformerSet(replace(a.spec, tag="x-channel-copy"), a.matrices) != a
    assert a != "x-channel"


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
    # Only the closure gate has a sum that must hit the degenerate set.
    assert [tag for tag, spec in SCHEMES.items() if not spec.sampleable] == ["phase-align"]


def test_feasible_sampler_margin_bounds(monkeypatch):
    monkeypatch.setattr(schemes, "GENERIC_PHASE_MARGIN", np.pi)
    monkeypatch.setattr(schemes, "_SAMPLE_ATTEMPTS", 3)
    with pytest.raises(InfeasibleChannelError) as exc:
        sample_feasible_channel("acs-ic3", 0)
    assert exc.value.failed == ("margin",)
    assert "within 3 attempts" in str(exc.value)


def test_phase_alignment_build_is_parameterless_and_exact():
    chn = construct_special_channel("phase-example")
    bf = build_phase_alignment(chn)
    assert np.allclose(bf.matrices[0][:, 0], [1.0, 0.0])
    assert alignment_residual(bf, chn) < 1e-15
    # One coincidence per receiver, the closure-derived one only up to sign.
    assert tuple(p.up_to_sign for p in bf.spec.alignments) == (False, False, True)


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
    estimate_dof(build_acs_ic3, chn, 4)
    assert len(rotation_builds) == 15
    rotation_builds.clear()
    # x-channel: four links and two derivation groups of two pairs each.
    build_x_channel(sample_feasible_channel("x-channel", 4), seed=4)
    assert len(rotation_builds) == 6


def test_a_sampled_trial_evaluates_its_gate_once(monkeypatch):
    sums = []
    phase_sum = verify._signed_phase_sum

    def counted(channel, terms):
        sums.append(terms)
        return phase_sum(channel, terms)

    monkeypatch.setattr(verify, "_signed_phase_sum", counted)
    spec = scheme_spec("acs-ic3")
    chn = spec.sample(0)
    schemes._build(spec, chn, seed=0)
    # The sampler's accepted attempt and the builder's gate share one report.
    assert len(sums) == 6
    assert spec.gate(chn)[0] is check_conditions(chn, "acs-ic3")
    assert len(sums) == 6


def test_sweep_trials_evaluate_one_gate_per_drawn_channel(monkeypatch):
    drawn, evaluated = [], []
    sample, evaluate = schemes.sample_channel, verify._evaluate
    monkeypatch.setattr(schemes, "sample_channel", lambda *a: drawn.append(a) or sample(*a))
    monkeypatch.setattr(verify, "_evaluate", lambda *a: evaluated.append(a) or evaluate(*a))
    spec = scheme_spec("acs-ic3")
    for seed in range(100):
        schemes._build(spec, spec.sample(seed), seed)
    # Some trials redraw, and each redraw is judged once.
    assert len(drawn) > 100 and len(evaluated) == len(drawn)
