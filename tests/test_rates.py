"""Zero-forcing rates, slope regression, and the per-symbol baseline."""

import pickle
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from acsalign import rates, verify
from acsalign.channel import (
    ComplexChannelMatrix,
    ExtendedRotation,
    _signed_phase_sum,
    construct_special_channel,
    special_channel_kinds,
)
from acsalign.rates import (
    DEFAULT_SNR_GRID_DB,
    RankDeficientReceiverError,
    RateReport,
    baseline_rate_profile,
    estimate_baseline_dof,
    estimate_dof,
    fit_dof,
    sum_rate,
    validate_snr_grid,
)
from acsalign.schemes import (
    SCHEME_TAGS,
    SCHEMES,
    SchemeSpec,
    _build,
    build_acs_ic3,
    build_phase_alignment,
    build_scheme,
    sample_feasible_channel,
)
from acsalign.verify import _GATES, InfeasibleChannelError, independence_margin


def _combiners(bf, chn) -> dict:
    """Each stream's unit zero-forcing combiner, keyed (tx, column)."""
    return {key: w for rx, (combiners,), _ in rates._zf_solve(bf.spec, verify._receivers(bf, chn))
            for key, w in zip(bf.spec.desired_streams(rx), combiners)}


def test_orthogonal_images_give_unit_gain_and_closed_form_sinr():
    chn = construct_special_channel("phase-example")
    bf = build_phase_alignment(chn)
    combiners = _combiners(bf, chn)
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
    combiners = _combiners(bf, chn)
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


# 60 to 110 dB in 2.5 dB steps, as linear SNRs.
GRID_21 = tuple(10.0 ** ((60 + 2.5 * i) / 10.0) for i in range(21))


@pytest.mark.parametrize("tag", SCHEME_TAGS)
def test_block_rates_solve_once_and_match_per_point_sum_rate(tag, monkeypatch):
    if tag == "phase-align":
        chn = construct_special_channel("phase-example")
    else:
        chn = sample_feasible_channel(tag, 3)
    bf = build_scheme(tag, chn, seed=3)
    calls = []
    # The rate layer reads every receiver's stack through one call of verify's
    # stack builder, which makes one stacked matmul and one stacked SVD per
    # stack width.
    real_stacks = verify._stacks

    def counting_stacks(column, links, stacks):
        counts = {"matmul": 0, "svd": 0}

        def counted(real, name):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return call

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "matmul", counted(np.matmul, "matmul"))
            patch.setattr(np.linalg, "svd", counted(np.linalg.svd, "svd"))
            found = real_stacks(column, links, stacks)
        calls.append(([rx for rx, _ in stacks], counts, len(found)))
        return found

    monkeypatch.setattr(verify, "_stacks", counting_stacks)
    block = rates._set_rates(bf, chn, np.array(GRID_21))
    (call,) = calls
    widths = len({len(keys) for _, keys in bf.spec._layout})
    num_rx = bf.spec.shape[0]
    assert call == (list(range(num_rx)), {"matmul": widths, "svd": widths}, num_rx)
    monkeypatch.undo()
    S = bf.spec.extension
    for snr, row in zip(GRID_21, block):
        assert sum_rate(bf, chn, snr) == RateReport(tuple(float(x) / S for x in row), float(row.sum()) / S)


def test_invalid_snr_is_rejected(monkeypatch):
    chn = sample_feasible_channel("acs-ic3", 0)
    bf = build_acs_ic3(chn, seed=0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=re.escape(f"snr must be positive and finite, got {bad!r}")):
            sum_rate(bf, chn, bad)
    # A finite snr so large that the SINR product overflows is rejected by name,
    # not returned as an infinite rate.
    with pytest.raises(ValueError, match=r"rate arithmetic overflows at snr 1e\+308"):
        sum_rate(bf, chn, 1e308)
    # Over a grid, the overflow names its largest snr.
    with pytest.raises(ValueError, match=r"rate arithmetic overflows at snr 1e\+308"):
        rates._set_rates(bf, chn, np.array([1e6, 1e308]))
    # Anything but one number is rejected by its shape before zero forcing runs.
    def no_zero_forcing(*args):
        raise AssertionError("zero forcing ran")

    monkeypatch.setattr(rates, "_zf_solve", no_zero_forcing)
    for snr, shape in (([], (0,)), ([1e6], (1,)), ([[1e6]], (1, 1))):
        with pytest.raises(ValueError, match=re.escape(f"snr must be one number, got shape {shape}")):
            sum_rate(bf, chn, snr)


@pytest.mark.parametrize("idx,rx", [(1, 0), (4, 1), (6, 2)])
def test_rank_deficient_receiver_is_reported(idx, rx):
    chn = construct_special_channel(f"acs-violating-{idx}")
    bf = build_acs_ic3(chn, seed=3, check=False)
    # Solving and adding up are one pass in _block_rates: it reports the same receiver.
    for call in (lambda: list(rates._zf_solve(bf.spec, verify._receivers(bf, chn))),
                 lambda: estimate_dof(lambda ch, s: bf, chn, 0), lambda: sum_rate(bf, chn, 1e6)):
        with pytest.raises(RankDeficientReceiverError) as exc:
            call()
        assert exc.value.rx == rx


def test_rank_deficient_receiver_error_survives_pickling():
    exc = RankDeficientReceiverError(2, "its stack is dependent, smallest singular value 1e-16")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is RankDeficientReceiverError
    assert str(back) == str(exc) and back.args == exc.args and back.rx == 2


def _cross_sum_lowered(eps: float) -> ComplexChannelMatrix:
    """acs-violating-1 with the phase of link (0, 0) lowered by eps, which
    moves cross sum 0 off zero by eps."""
    base = construct_special_channel("acs-violating-1")
    phase = base.phase.copy()
    phase[0, 0] -= eps
    return ComplexChannelMatrix(base.magnitude, phase)


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-7, 0.0])
def test_no_slope_for_a_receiver_verify_does_not_call_independent(eps):
    # Receiver 0's smallest singular value is about 0.329 * eps: independent
    # at 1e-4, indeterminate at 1e-6 and 1e-7, dependent at 0.
    chn = _cross_sum_lowered(eps)
    builder = partial(build_scheme, "acs-ic3", check=False)
    statuses = [r.status for r in independence_margin(builder(chn, 0), chn).receivers]
    assert statuses[1:] == ["independent", "independent"]
    if eps == 1e-4:
        assert statuses[0] == "independent"
        est = estimate_dof(builder, chn, 0)
        # Rated, and flagged: the grid has not reached the asymptotic regime.
        assert not est.asymptotic
        assert est.slope == pytest.approx(1.1279, abs=1e-4)
        return
    with pytest.raises(RankDeficientReceiverError, match=r"\b(indeterminate|dependent)\b") as exc:
        estimate_dof(builder, chn, 0)
    assert exc.value.rx == 0
    assert statuses[0] in str(exc.value)


@pytest.mark.parametrize("overfull", [
    # One stream per user in one slot, unaligned: 3 columns in 2 rows.
    lambda: SchemeSpec("wide", "acs-ic3", extension=1, stream_rx=((0,), (1,), (2,)),
                       free_blocks=((0, (0,)), (1, (0,)), (2, (0,)))),
    # acs-ic3 with a fifth stream at transmitter 1, past the 6/5 bound: 11 columns in 10 rows.
    lambda: replace(SCHEMES["acs-ic3"], stream_rx=((0,) * 4, (1,) * 5, (2,) * 4),
                    free_blocks=((0, (0, 1)), (1, (0, 1, 4)), (2, (0, 1)))),
], ids=["wide", "five-streams"])
def test_a_stack_wider_than_2s_is_refused_at_construction(overfull):
    # An SVD of a wide stack returns one singular value per row and would call
    # it independent; such a layout cannot be built, gated or rated.
    with pytest.raises(ValueError, match=r"receiver 0 stacks \d+ columns in \d+ real dimensions"):
        overfull()


def _gating_sum_moved(chn: ComplexChannelMatrix, terms, eps: float) -> ComplexChannelMatrix:
    """`chn` with the first link of a gating phase sum shifted so the sum is eps."""
    (rt, sign), phase = terms[0], chn.phase.copy()
    phase[rt] += sign * (eps - _signed_phase_sum(chn, terms))
    return ComplexChannelMatrix(chn.magnitude, phase)


def _verdict_cases():
    """(tag, channel) for every scheme: the 3x3 special channels, and for the
    2x2 and 2x4 schemes a sampled channel with each gating sum moved to eps."""
    for tag in SCHEME_TAGS:
        spec = SCHEMES[tag]
        if spec.shape == (3, 3):
            yield from ((tag, construct_special_channel(kind)) for kind in special_channel_kinds())
            continue
        chn = sample_feasible_channel(tag, 0)
        for _, terms, _, _ in _GATES[spec.feasibility].conditions:
            for eps in (0.0, 1e-11, 1e-8, 1e-6, 1e-3):
                yield tag, _gating_sum_moved(chn, terms, eps)


def test_builder_rates_and_independence_margin_read_one_verdict():
    seen = set()
    snrs = np.array([10.0 ** (db / 10.0) for db in DEFAULT_SNR_GRID_DB])
    for tag, chn in _verdict_cases():
        bf = build_scheme(tag, chn, seed=0, check=False)
        statuses = [r.status for r in independence_margin(bf, chn).receivers]
        seen.update(statuses)
        failing = [rx for rx, status in enumerate(statuses) if status != "independent"]
        if failing:
            with pytest.raises(RankDeficientReceiverError) as exc:
                rates._set_rates(bf, chn, snrs)
            assert exc.value.rx == failing[0], (tag, statuses)
            assert statuses[failing[0]] in str(exc.value)
        else:
            assert rates._set_rates(bf, chn, snrs).shape == (len(snrs), bf.spec.shape[0])
        if SCHEMES[tag].gate(chn)[1]:
            continue
        # Past the feasibility conditions, the builder's conditioning gate
        # refuses exactly the sets the other two readers refuse.
        if failing:
            with pytest.raises(InfeasibleChannelError) as gate:
                build_scheme(tag, chn, seed=0)
            assert gate.value.failed == ("conditioning",)
        else:
            assert build_scheme(tag, chn, seed=0) == bf
    assert seen == {"independent", "indeterminate", "dependent"}


def test_treat_interference_as_noise_hand_example():
    chn = ComplexChannelMatrix(
        np.array([[1.0, 0.5], [0.5, 1.0]]),
        np.zeros((2, 2)),
    )
    # At snr 4 both users at full power (2 x 1.58 bits) beat one alone (2.32).
    rates = baseline_rate_profile(chn, 4.0)
    assert np.allclose(rates, np.log2(1.0 + 4.0 / (1.0 + 0.25 * 4.0)))


def test_baseline_input_validation():
    chn = sample_feasible_channel("acs-ic3", 0)
    with pytest.raises(ValueError):
        baseline_rate_profile(chn, 0.0)
    for snr in (np.nan, np.inf):
        with pytest.raises(ValueError, match="snr must be positive and finite"):
            baseline_rate_profile(chn, snr)
    with pytest.raises(ValueError, match=re.escape("snr must be one number, got shape (1,)")):
        baseline_rate_profile(chn, [1e6])
    wide = ComplexChannelMatrix(np.ones((2, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="the per-symbol baseline needs a square channel"):
        baseline_rate_profile(wide, 1.0)
    # Overflow in the interference sum raises instead of a plausible-looking
    # profile with every other user at rate 0.
    with pytest.raises(ValueError, match=r"rate arithmetic overflows at snr 1e\+308"):
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


def test_fit_on_exactly_linear_rates_is_asymptotic():
    rates = [1.2 * db / 10.0 * np.log2(10.0) - 3.0 for db in DEFAULT_SNR_GRID_DB]
    est = fit_dof(DEFAULT_SNR_GRID_DB, [(r,) for r in rates])
    assert est.per_user_rates == tuple((r,) for r in rates)
    assert est.secant == pytest.approx(est.slope, abs=1e-12)
    assert est.slope == pytest.approx(1.2, abs=1e-12)
    assert est.asymptotic


def test_slope_estimate_rejects_bad_grids():
    chn = sample_feasible_channel("acs-ic3", 0)
    with pytest.raises(ValueError):
        estimate_dof(lambda ch, s: build_acs_ic3(ch, s), chn, seed=0, snr_grid_db=[60.0, 50.0, 70.0, 80.0])
    # The baseline's estimate is its block route on one channel, behind the same check.
    with pytest.raises(ValueError, match="snr grid must be strictly increasing"):
        estimate_baseline_dof(chn, [60.0, 50.0, 70.0, 80.0])


def _built_on_seeds(tag):
    """(seed, channel, set) for trial seeds 0-9 of a sampleable tag, drawn and
    built as a sweep does; a closure-gated one (phase-align) on the worked example."""
    spec = SCHEMES[tag]
    if not spec.sampleable:
        chn = construct_special_channel("phase-example")
        return [(0, chn, _build(spec, chn, 0))]
    return [(seed, chn, _build(spec, chn, seed)) for seed in range(10) for chn in [spec.sample(seed)]]


def _log_det_rates(bf, chn, snrs) -> np.ndarray:
    """Each receiver's improper-Gaussian rate per S-slot block with interference
    treated as noise, at each of `snrs`: (snrs, receivers), one stacked slogdet
    per receiver and covariance.  No receiver is built: the covariances come
    from the channel and columns alone, every interfering stream counted, aligned
    duplicates included, and the streams a receiver knows (removed_streams) not."""
    spec, S = bf.spec, bf.spec.extension
    links = chn.link_rotations(S)
    noise = rates.NOISE_VAR_PER_REAL_DIM * np.eye(2 * S)
    out = np.zeros((len(snrs), spec.shape[0]))
    for rx in range(spec.shape[0]):
        desired, interfering = np.zeros((2 * S, 2 * S)), np.zeros((2 * S, 2 * S))
        for t, c, r in spec.streams():
            h = chn.magnitude[rx, t] * links[rx, t] @ bf.column(t, c)
            power = S / len(spec.stream_rx[t])
            if r == rx:
                desired += power * np.outer(h, h)
            elif (rx, t, c) not in spec.removed_streams:
                interfering += power * np.outer(h, h)
        interference = noise + snrs[:, None, None] * interfering
        everything = interference + snrs[:, None, None] * desired
        out[:, rx] = (np.linalg.slogdet(everything)[1] - np.linalg.slogdet(interference)[1]) / (2 * np.log(2))
    return out


@pytest.mark.parametrize("tag", ["acs-ic3", "x-channel", "uplinks", "cognitive-x"])
def test_zero_forcing_rates_sit_under_the_receiver_free_log_det_rates(tag):
    # Zero forcing decodes each stream alone behind a projection; the log-det
    # rate decodes a receiver's streams jointly with the same interference as
    # noise, so it is never lower, and both grow with the same slope.  The
    # allowance is slogdet's round-off where aligned interferers leave the
    # interference covariance nearly singular at the top of the grid.
    snrs = np.array(rates._db_to_linear(DEFAULT_SNR_GRID_DB))
    for seed, chn, bf in _built_on_seeds(tag):
        S = bf.spec.extension
        est = estimate_dof(lambda ch, s: bf, chn, seed)
        log_det = _log_det_rates(bf, chn, snrs)
        assert np.all(log_det / S >= np.array(est.per_user_rates) - 1e-4), (seed, log_det / S, est.per_user_rates)
        assert fit_dof(DEFAULT_SNR_GRID_DB, log_det, S).slope == pytest.approx(est.slope, abs=1e-4), seed


@pytest.mark.parametrize("tag", SCHEME_TAGS)
def test_the_fitted_slope_is_the_stream_count_plus_the_gap_terms_slope(tag):
    # A stream's zero-forcing rate per block is 0.5*log2(1 + a*snr), that is
    # 0.5*log2(snr) + 0.5*log2(a) + 0.5*log2(1 + 1/(a*snr)).  Over D streams and
    # S slots the fitted slope is D/(2S) plus the slope of the last terms' sum G:
    # the constants fit no slope, and G alone carries the departure from D/(2S).
    snrs = np.array(rates._db_to_linear(DEFAULT_SNR_GRID_DB))
    x = np.log2(snrs)
    for seed, chn, bf in _built_on_seeds(tag):
        spec, S = bf.spec, bf.spec.extension
        a = []
        for rx, _, (gains,) in rates._zf_solve(spec, verify._receivers(bf, chn)):
            for (t, _), g in zip(spec.desired_streams(rx), gains):
                share = 1.0 / len(spec.stream_rx[t])
                a.append(S * share * chn.magnitude[rx, t] ** 2 * g ** 2 / rates.NOISE_VAR_PER_REAL_DIM)
        assert len(a) == len(spec.streams())
        G = [sum(0.5 * np.log2(1.0 + 1.0 / (a_k * snr)) for a_k in a) / S for snr in snrs]
        est = estimate_dof(lambda ch, s: bf, chn, seed)
        assert est.slope == pytest.approx(len(a) / (2 * S) + np.polyfit(x, G, 1)[0], abs=1e-9), seed
