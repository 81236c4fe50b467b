"""Zero-forcing rates, slope regression, and the per-symbol baseline."""

import re

import numpy as np
import pytest

from acsalign import rates
from acsalign.channel import (
    ComplexChannelMatrix,
    ExtendedRotation,
    construct_special_channel,
)
from acsalign.rates import (
    DEFAULT_SNR_GRID_DB,
    RankDeficientReceiverError,
    baseline_circsym,
    baseline_rate_profile,
    estimate_dof,
    fit_dof,
    rate_reports,
    sum_rate,
    validate_snr_grid,
    zf_receive,
)
from acsalign.schemes import (
    SCHEME_TAGS,
    build_acs_ic3,
    build_phase_alignment,
    build_scheme,
    sample_feasible_channel,
)


def test_orthogonal_images_give_unit_gain_and_closed_form_sinr():
    chn = construct_special_channel("phase-example")
    bf = build_phase_alignment(chn)
    combiners = zf_receive(bf, chn)
    assert np.allclose(np.abs(combiners[(0, 0)]), [1.0, 0.0], atol=1e-12)
    rotations = chn.link_rotations(1)
    for (t, c), w in combiners.items():
        rx = bf.spec.stream_rx[t][c]
        assert abs(w @ (rotations[rx][t] @ bf.column(t, c)) - 1.0) < 1e-12
    # One stream per receiver, so each receiver's rate is its stream's: SINR = 2*snr.
    snr = 100.0
    for rate in sum_rate(bf, chn, snr).per_receiver:
        assert abs(rate - 0.5 * np.log2(1.0 + 2.0 * snr)) < 1e-9


def test_combiners_null_every_other_stream_image():
    chn = sample_feasible_channel("acs-ic3", 0)
    bf = build_acs_ic3(chn, seed=0)
    combiners = zf_receive(bf, chn)
    S = bf.spec.extension
    for t, c, rx in bf.spec.streams():
        w = combiners[(t, c)]
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        for t2, c2, _ in bf.spec.streams():
            if (t2, c2) == (t, c):
                continue
            image = ExtendedRotation(chn.phase[rx, t2], S).matrix @ bf.column(t2, c2)
            assert abs(w @ image) < 1e-9


def test_sum_rate_is_monotone_in_snr():
    chn = sample_feasible_channel("x-channel", 1)
    bf = build_scheme("x-channel", chn, seed=1)
    rates = [sum_rate(bf, chn, s).sum_rate for s in (1.0, 10.0, 100.0, 1e4)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_per_receiver_rates_sum_to_total():
    chn = sample_feasible_channel("uplinks", 2)
    bf = build_scheme("uplinks", chn, seed=2)
    report = sum_rate(bf, chn, 1e3)
    assert abs(sum(report.per_receiver) - report.sum_rate) < 1e-12
    assert report.to_dict()["sum_rate"] == report.sum_rate


# 60 to 110 dB in 2.5 dB steps, as linear SNRs.
GRID_21 = tuple(10.0 ** ((60 + 2.5 * i) / 10.0) for i in range(21))


@pytest.mark.parametrize("tag", SCHEME_TAGS)
def test_rate_reports_solve_once_and_match_per_point_sum_rate(tag, monkeypatch):
    if tag == "phase-align":
        chn = construct_special_channel("phase-example")
    else:
        chn = sample_feasible_channel(tag, 3)
    bf = build_scheme(tag, chn, seed=3)
    calls = []
    real_stack = rates.receiver_stack

    def counting_stack(beamformers, channel, rx):
        calls.append(rx)
        return real_stack(beamformers, channel, rx)

    monkeypatch.setattr(rates, "receiver_stack", counting_stack)
    reports = rate_reports(bf, chn, GRID_21)
    assert sorted(calls) == list(range(bf.spec.shape[0]))
    monkeypatch.undo()
    assert reports == tuple(sum_rate(bf, chn, snr) for snr in GRID_21)


def test_invalid_snr_is_rejected(monkeypatch):
    chn = sample_feasible_channel("acs-ic3", 0)
    bf = build_acs_ic3(chn, seed=0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            sum_rate(bf, chn, bad)
        for pos in (0, 3, 5):
            grid = [1e6, 1e7, 1e8, 1e9, 1e10, 1e11]
            grid[pos] = bad
            with pytest.raises(ValueError, match="positive and finite"):
                rate_reports(bf, chn, grid)
    # A finite snr so large that the SINR product overflows is rejected by name,
    # not returned as an infinite rate.
    with pytest.raises(ValueError, match=r"rate arithmetic overflows at snr 1e\+308"):
        sum_rate(bf, chn, 1e308)
    with pytest.raises(ValueError, match=r"rate arithmetic overflows at snr 1e\+308"):
        rate_reports(bf, chn, [1e6, 1e308])
    # Anything but a non-empty 1-d sequence is rejected before zero forcing runs.
    def no_zero_forcing(*args):
        raise AssertionError("zero forcing ran")

    monkeypatch.setattr(rates, "_zf_solve", no_zero_forcing)
    for snrs, shape in (([], (0,)), (1e6, ()), ([[1e6, 1e7]], (1, 2))):
        with pytest.raises(ValueError, match=re.escape(f"snrs must be a non-empty 1-d sequence, got shape {shape}")):
            rate_reports(bf, chn, snrs)
    with pytest.raises(ValueError, match="non-empty 1-d sequence"):
        sum_rate(bf, chn, [])


@pytest.mark.parametrize("idx,rx", [(1, 0), (4, 1), (6, 2)])
def test_rank_deficient_receiver_is_reported(idx, rx):
    chn = construct_special_channel(f"acs-violating-{idx}")
    bf = build_acs_ic3(chn, seed=3, check=False)
    # Solving and adding up are one loop in rate_reports: it reports the same receiver.
    for call in (lambda: zf_receive(bf, chn), lambda: rate_reports(bf, chn, DEFAULT_SNR_GRID_DB),
                 lambda: sum_rate(bf, chn, 1e6)):
        with pytest.raises(RankDeficientReceiverError) as exc:
            call()
        assert exc.value.rx == rx


def test_treat_interference_as_noise_hand_example():
    chn = ComplexChannelMatrix(
        np.array([[1.0, 0.5], [0.5, 1.0]]),
        np.zeros((2, 2)),
    )
    rates = baseline_circsym(chn, [4.0, 9.0])
    assert np.isclose(rates[0], np.log2(1.0 + 4.0 / (1.0 + 0.25 * 9.0)))
    assert np.isclose(rates[1], np.log2(1.0 + 9.0 / (1.0 + 0.25 * 4.0)))


def test_baseline_input_validation():
    chn = sample_feasible_channel("acs-ic3", 0)
    with pytest.raises(ValueError):
        baseline_circsym(chn, [1.0, 1.0])
    with pytest.raises(ValueError):
        baseline_circsym(chn, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        baseline_rate_profile(chn, 0.0)
    for snr in (np.nan, np.inf):
        with pytest.raises(ValueError, match="snr must be positive and finite"):
            baseline_rate_profile(chn, snr)
    for powers in ([np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0]):
        with pytest.raises(ValueError, match="powers must be nonnegative and finite"):
            baseline_circsym(chn, powers)
    # Overflow in the interference sum raises instead of a plausible-looking
    # profile with every other user at rate 0.
    with pytest.raises(ValueError, match=r"rate arithmetic overflows at powers \[1e\+308, 1.0, 1.0\]"):
        baseline_circsym(chn, [1e308, 1.0, 1.0])
    with pytest.raises(ValueError, match="rate arithmetic overflows"):
        baseline_rate_profile(chn, 1e308)


def test_baseline_profile_modes():
    chn = sample_feasible_channel("acs-ic3", 5)
    # Interference-limited regime: shutting down all but one user wins.
    high = baseline_rate_profile(chn, 1e8)
    assert np.count_nonzero(high) == 1
    # Noise-limited regime: everybody transmitting beats one user alone.
    low = baseline_rate_profile(chn, 1e-3)
    assert np.count_nonzero(low) == 3


def test_grid_validation():
    assert validate_snr_grid(DEFAULT_SNR_GRID_DB).shape == (6,)
    with pytest.raises(ValueError):
        validate_snr_grid([60.0, 70.0, 80.0])
    with pytest.raises(ValueError):
        validate_snr_grid([60.0, 70.0, 70.0, 80.0])
    with pytest.raises(ValueError):
        validate_snr_grid([30.0, 70.0, 80.0, 90.0])
    with pytest.raises(ValueError):
        validate_snr_grid([60.0, 70.0, 80.0, 150.0])
    with pytest.raises(ValueError, match="finite, got nan at position 2"):
        validate_snr_grid([60.0, np.nan, 80.0, 90.0])
    with pytest.raises(ValueError, match="finite, got inf at position 4"):
        validate_snr_grid([60.0, 70.0, 80.0, np.inf])
    # A grid of the wrong shape is named by its shape, not counted short.
    for grid, shape in (([[60.0, 70.0, 80.0, 90.0]], (1, 4)), (75.0, ())):
        message = f"snr grid must be a non-empty 1-d sequence, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_snr_grid(grid)


def test_slope_estimate_on_one_channel():
    chn = sample_feasible_channel("acs-ic3", 0)
    est = estimate_dof(lambda ch, s: build_acs_ic3(ch, s), chn, seed=0)
    assert 1.17 <= est.slope <= 1.23
    assert est.rms_residual < 0.05
    assert est.snr_grid_db == tuple(DEFAULT_SNR_GRID_DB)
    assert len(est.sum_rates) == 6
    d = est.to_dict()
    assert d["slope"] == est.slope


def test_fit_on_exactly_linear_rates_is_asymptotic():
    rates = [1.2 * db / 10.0 * np.log2(10.0) - 3.0 for db in DEFAULT_SNR_GRID_DB]
    est = fit_dof(DEFAULT_SNR_GRID_DB, rates, [(r,) for r in rates])
    assert est.per_user_rates == tuple((r,) for r in rates)
    assert est.secant == pytest.approx(est.slope, abs=1e-12)
    assert est.slope == pytest.approx(1.2, abs=1e-12)
    assert est.asymptotic


def test_slope_estimate_rejects_bad_grids():
    chn = sample_feasible_channel("acs-ic3", 0)
    with pytest.raises(ValueError):
        estimate_dof(lambda ch, s: build_acs_ic3(ch, s), chn, seed=0, snr_grid_db=[60.0, 50.0, 70.0, 80.0])
