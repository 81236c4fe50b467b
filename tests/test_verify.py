"""Condition checks, alignment residuals, independence tests, phasor lemmas."""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from acsalign.channel import (
    ComplexChannelMatrix,
    construct_special_channel,
    sample_channel,
    special_channel_kinds,
)
from acsalign.rates import sum_rate
from acsalign.schemes import BeamformerSet, build_acs_ic3, build_scheme
from acsalign.verify import (
    CONDITION_SETS,
    PHASE_TOL,
    DegenerateAnglesError,
    InfeasibleChannelError,
    alignment_residual,
    check_conditions,
    demonstrate_containment,
    independence_margin,
    solve_phasor_pair,
)


def test_condition_sets_are_registered():
    assert set(CONDITION_SETS) == {"phase-align", "acs-ic3", "singularity", "x-channel", "uplinks"}
    with pytest.raises(ValueError):
        check_conditions(sample_channel(0, 3, 3), "nonsense")


@pytest.mark.parametrize("detail", ["", "smallest receive singular value 1e-12 <= 1e-09"], ids=["plain", "detail"])
def test_infeasible_channel_error_survives_pickling(detail):
    # A forked sweep worker, or a caller's own process pool, pickles the
    # exception to its parent: it must come back whole, not as a TypeError.
    exc = InfeasibleChannelError("acs-ic3", ("margin", "rx1-a"), detail)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is InfeasibleChannelError
    assert str(back) == str(exc) and back.args == exc.args
    assert (back.scheme, back.failed) == ("acs-ic3", ("margin", "rx1-a"))


def _reference_formulas(chn: ComplexChannelMatrix) -> tuple[dict, list | None]:
    """Each condition set's phase sums on this channel's shape as hand-written
    expressions in report order, and the singularity gain ratios (3x3 only)."""
    p, m = chn.phase, chn.magnitude
    if chn.magnitude.shape == (2, 2):
        return {"x-channel": [p[0, 0] + p[1, 1] - p[1, 0] - p[0, 1]]}, None
    if chn.magnitude.shape == (2, 4):
        return {"uplinks": [p[0, 0] + p[1, 1] - p[1, 0] - p[0, 1], p[1, 2] + p[0, 3] - p[0, 2] - p[1, 3]]}, None
    cross = [
        p[0, 2] + p[1, 0] - p[1, 2] - p[0, 0],
        p[0, 1] + p[2, 0] - p[2, 1] - p[0, 0],
        p[1, 0] + p[2, 1] - p[2, 0] - p[1, 1],
        p[1, 2] + p[0, 1] - p[0, 2] - p[1, 1],
        p[2, 1] + p[0, 2] - p[0, 1] - p[2, 2],
        p[2, 0] + p[1, 2] - p[1, 0] - p[2, 2],
    ]
    ratios = [
        (m[0, 2] * m[1, 0]) / (m[1, 2] * m[0, 0]),
        (m[0, 1] * m[2, 0]) / (m[2, 1] * m[0, 0]),
        (m[1, 0] * m[2, 1]) / (m[2, 0] * m[1, 1]),
        (m[1, 2] * m[0, 1]) / (m[0, 2] * m[1, 1]),
        (m[2, 1] * m[0, 2]) / (m[0, 1] * m[2, 2]),
        (m[2, 0] * m[1, 2]) / (m[1, 0] * m[2, 2]),
    ]
    return {
        "phase-align": [
            p[2, 1] + p[1, 0] + p[0, 2] - p[0, 1] - p[1, 2] - p[2, 0],
            p[1, 0] - p[1, 2] + p[0, 2] - p[0, 0],
            p[1, 1] + p[0, 2] - p[0, 1] - p[1, 2],
            p[2, 2] + p[1, 0] - p[1, 2] - p[2, 0],
        ],
        "acs-ic3": cross,
        "singularity": cross,
    }, ratios


REFERENCE_CHANNELS = (
    [sample_channel(s, 3, 3) for s in range(8)]
    + [construct_special_channel(kind) for kind in special_channel_kinds()]
    + [sample_channel(s, 2, 2) for s in range(4)] + [ComplexChannelMatrix(np.ones((2, 2)), np.zeros((2, 2)))]
    + [sample_channel(s, 4, 2) for s in range(4)] + [ComplexChannelMatrix(np.ones((2, 4)), np.zeros((2, 4)))]
)


@pytest.mark.parametrize("chn", REFERENCE_CHANNELS)
def test_condition_values_match_the_reference_formulas(chn):
    sums, ratios = _reference_formulas(chn)
    for which, values in sums.items():
        report = check_conditions(chn, which)
        assert [rec.value for rec in report.records] == values
    if ratios is not None:
        assert [rec.magnitude_ratio for rec in check_conditions(chn, "singularity").records] == ratios


def test_acs_conditions_on_phase_example():
    report = check_conditions(construct_special_channel("phase-example"), "acs-ic3")
    assert report.failed == ()
    assert len(report.records) == 6
    for rec in report.records:
        assert rec.requires == "nonzero"
        assert np.isclose(rec.distance, np.pi / 2)


def test_acs_conditions_on_plus_minus_one():
    report = check_conditions(construct_special_channel("plus-minus-one"), "acs-ic3")
    assert report.failed == ("rx1-a", "rx1-b", "rx2-a", "rx2-b", "rx3-a", "rx3-b")
    for rec in report.records:
        assert rec.distance < 1e-12


def test_phase_align_conditions_on_phase_example():
    report = check_conditions(construct_special_channel("phase-example"), "phase-align")
    assert report.failed == ()
    closure = next(r for r in report.records if r.cid == "closure")
    assert closure.requires == "zero" and closure.distance < 1e-12
    seps = [r for r in report.records if r.cid.endswith("-separation")]
    assert len(seps) == 3
    assert all(np.isclose(r.distance, np.pi / 2) for r in seps)


def test_phase_align_conditions_on_all_ones():
    # Closure trivially holds with zero phases but nothing separates.
    report = check_conditions(construct_special_channel("all-ones"), "phase-align")
    assert report.failed == ("rx1-separation", "rx2-separation", "rx3-separation")


def test_singularity_conditions():
    assert check_conditions(construct_special_channel("all-ones"), "singularity").failed == ()
    for idx in range(1, 7):
        report = check_conditions(construct_special_channel(f"singular-{idx}"), "singularity")
        satisfied = [r.cid for r in report.records if r.cid not in report.failed]
        assert len(satisfied) == 1
        # The singular channel trips the matching feasibility condition too.
        acs = check_conditions(construct_special_channel(f"singular-{idx}"), "acs-ic3")
        assert satisfied == [acs.failed[0]]


def test_singularity_with_a_zero_link_marks_undefined_ratios_unsatisfied():
    ones = construct_special_channel("all-ones")
    magnitude = np.array(ones.magnitude)
    magnitude[1, 2] = 0.0
    chn = ComplexChannelMatrix(magnitude, np.array(ones.phase))
    records = check_conditions(chn, "singularity").to_dict()["conditions"]
    undefined = [r for r in records if "magnitude_ratio" not in r]
    assert undefined and not any(r["satisfied"] for r in undefined)
    # Sums that avoid the dead link are still the all-ones traps.
    assert any(r["satisfied"] for r in records)


def test_violating_channel_fails_only_its_condition():
    for idx in range(1, 7):
        chn = construct_special_channel(f"acs-violating-{idx}")
        acs = check_conditions(chn, "acs-ic3")
        assert len(acs.failed) == 1
        # Phases alone are zeroed; generic magnitudes keep the gain ratio off 1,
        # so the matching full singularity condition does not fire.
        sing = check_conditions(chn, "singularity")
        assert sing.failed == tuple(r.cid for r in sing.records)


def test_condition_report_serializes():
    d = check_conditions(construct_special_channel("phase-example"), "acs-ic3").to_dict()
    assert d["kind"] == "acs-ic3"
    assert len(d["conditions"]) == 6
    assert all("distance" in rec for rec in d["conditions"])


def test_wrong_shape_is_an_error():
    with pytest.raises(ValueError):
        check_conditions(sample_channel(0, 2, 2), "acs-ic3")
    with pytest.raises(ValueError):
        check_conditions(sample_channel(0, 3, 3), "uplinks")


def test_beamformers_and_channel_must_agree_on_dimensions():
    bf = build_acs_ic3(sample_channel(7, 3, 3), seed=0)
    for chn, what in ((sample_channel(0, 2, 3), r"acs-ic3 needs a 3x3 channel \(receivers x transmitters\), got 3x2"),
                      (sample_channel(0, 3, 2), r"acs-ic3 needs a 3x3 channel \(receivers x transmitters\), got 2x3")):
        for probe in (alignment_residual, independence_margin):
            with pytest.raises(ValueError, match=what):
                probe(bf, chn)
        with pytest.raises(ValueError, match=what):
            sum_rate(bf, chn, 1e6)


def test_fresh_build_has_rounding_level_residual():
    chn = sample_channel(3, 3, 3)
    bf = build_acs_ic3(chn, seed=3)
    assert alignment_residual(bf, chn) < 1e-12


def test_perturbed_column_shows_up_in_residual():
    chn = sample_channel(3, 3, 3)
    bf = build_acs_ic3(chn, seed=3)
    mats = [m.copy() for m in bf.matrices]
    bump = np.zeros(mats[1].shape[0])
    bump[0] = 1e-3
    mats[1][:, 2] = mats[1][:, 2] + bump
    mats[1][:, 2] /= np.linalg.norm(mats[1][:, 2])
    perturbed = BeamformerSet(bf.spec, tuple(mats))
    residual = alignment_residual(perturbed, chn)
    assert 1e-4 < residual < 1e-2


def test_independence_on_generic_channel():
    chn = sample_channel(8, 3, 3)
    bf = build_acs_ic3(chn, seed=8)
    report = independence_margin(bf, chn)
    assert report.all_independent
    for rx_report in report.receivers:
        assert len(rx_report.singular_values) == 10
        assert rx_report.singular_values[-1] > 1e-6
        assert rx_report.min_principal_angle > 0.0


@pytest.mark.parametrize("idx", range(1, 7))
def test_violating_channel_collapses_the_implicated_receiver(idx):
    chn = construct_special_channel(f"acs-violating-{idx}")
    bf = build_scheme("acs-ic3", chn, seed=3, check=False)
    report = independence_margin(bf, chn)
    implicated = (idx - 1) // 2
    for rx, rx_report in enumerate(report.receivers):
        if rx == implicated:
            assert rx_report.status == "dependent"
            assert rx_report.singular_values[-1] < 1e-10
        else:
            assert rx_report.status == "independent"


def test_solve_phasor_pair_known_answers():
    c1, c2 = solve_phasor_pair(np.pi / 2, 0.0)
    assert np.allclose((c1, c2), (0.0, 1.0), atol=1e-12)
    c1, c2 = solve_phasor_pair(np.pi / 3, -np.pi / 3)
    assert np.allclose((c1, c2), (1.0, 1.0), atol=1e-12)
    # A non-finite angle raises instead of returning (nan, nan).
    for alpha, beta, got in ((np.nan, 0.3, "alpha=nan, beta=0.3"), (0.3, -np.inf, "alpha=0.3, beta=-inf")):
        with pytest.raises(ValueError, match=f"phasor angles must be finite, got {got}"):
            solve_phasor_pair(alpha, beta)


@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
def test_solve_phasor_pair_reconstructs_one(alpha, beta):
    assume(abs(np.sin(beta - alpha)) > 1e-6)
    c1, c2 = solve_phasor_pair(alpha, beta)
    assert abs(c1 * np.exp(1j * alpha) + c2 * np.exp(1j * beta) - 1.0) < 1e-9


def test_solve_phasor_pair_degenerate_pairs():
    with pytest.raises(DegenerateAnglesError):
        solve_phasor_pair(0.3, 0.3)
    with pytest.raises(DegenerateAnglesError):
        solve_phasor_pair(0.3, 0.3 + np.pi)


def test_containment_demo_on_generic_channels():
    for seed in range(10):
        demo = demonstrate_containment(sample_channel(seed, 3, 3), seed=seed)
        assert demo.residual < 1e-10
        assert np.allclose(demo.own_rx_tx3_coeffs, demo.c1 * demo.rx2_coeffs)
        assert np.allclose(demo.own_rx_tx2_coeffs, demo.c2 * demo.rx3_coeffs)


def test_containment_degenerates_exactly_where_single_symbol_alignment_lives():
    with pytest.raises(DegenerateAnglesError):
        demonstrate_containment(construct_special_channel("phase-example"), seed=0)


def test_containment_raises_exactly_on_the_closure_set():
    channels = [construct_special_channel(kind) for kind in special_channel_kinds()]
    channels += [sample_channel(seed, 3, 3) for seed in range(20)]
    degenerate = 0
    for chn in channels:
        closure = "closure" not in check_conditions(chn, "phase-align").failed
        try:
            demonstrate_containment(chn, seed=0)
        except DegenerateAnglesError:
            assert closure
            degenerate += 1
        else:
            assert not closure
    # phase-example, plus-minus-one and all-ones sit on the closure set.
    assert degenerate == 3


def test_containment_demo_needs_a_3x3_channel():
    with pytest.raises(ValueError, match=r"containment demo needs a 3x3 channel \(receivers x transmitters\), got 2x2"):
        demonstrate_containment(sample_channel(0, 2, 2), seed=0)


def test_containment_demo_serializes():
    d = demonstrate_containment(sample_channel(1, 3, 3), seed=1).to_dict()
    assert d["residual"] < 1e-10
    assert len(d["rx2_coeffs"]) == 2


def test_phase_tolerance_is_tight():
    assert PHASE_TOL <= 1e-9
