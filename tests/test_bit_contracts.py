"""The numerical identities the stacked builder relies on, pinned bit for bit.

The builder draws, derives and scores all candidates of one build as one
stacked batch, and the recorded sweep digests hold only because each stacked
operation gives, per candidate, exactly the bits of the one-at-a-time
operation it replaces.  Likewise the rate layer adds each stream's rate into
its receiver's column inside the zero-forcing pass, and must give the bits of
the transmitter-major sums.  Each identity gets its own test here, so a change
in the numerical stack (numpy, its BLAS or LAPACK) fails at the named contract
rather than as an opaque digest mismatch.  Every comparison is np.array_equal
or ==, never a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsalign import schemes
from acsalign.channel import ComplexChannelMatrix, construct_special_channel
from acsalign.rates import DEFAULT_SNR_GRID_DB, NOISE_VAR_PER_REAL_DIM, _db_to_linear, rate_reports
from acsalign.schemes import (
    CANDIDATE_DRAWS,
    SCHEME_TAGS,
    SchemeSpec,
    build_scheme,
    sample_feasible_channel,
    scheme_spec,
)
from acsalign.verify import _stack, independence_margin, receiver_stack

RANDOMIZED = ["acs-ic3", "x-channel", "uplinks"]


def _sequential_block(rng: np.random.Generator, dim: int, cols: int) -> np.ndarray:
    """One free block drawn, QR'd and sign-fixed on its own."""
    q, r = np.linalg.qr(rng.standard_normal((dim, cols)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@settings(max_examples=60, deadline=None)
@given(
    phases=st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=3, max_size=3),
    S=st.integers(1, 6),
    draws=st.integers(1, CANDIDATE_DRAWS),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_with_a_candidate_axis_is_the_per_column_matvec(phases, S, draws, seed):
    links = ComplexChannelMatrix(np.ones((1, 3)), np.array([phases])).link_rotations(S)[0]
    # Columns are strided views into (draws, 2S, 2) blocks, as drawn free columns are.
    blocks = np.random.default_rng(seed).standard_normal((3, draws, 2 * S, 2))
    keys = [(t, c) for t in range(3) for c in range(2)]
    stacked = _stack(lambda t, c: blocks[t][..., c], links, keys)
    assert stacked.shape == (draws, 2 * S, len(keys)) and stacked.flags.c_contiguous
    for d in range(draws):
        expected = np.column_stack([links[t] @ blocks[t][d][:, c] for t, c in keys])
        assert np.array_equal(stacked[d], expected)
        single = _stack(lambda t, c: blocks[t][d][:, c], links, keys)
        assert single.flags.c_contiguous and np.array_equal(single, expected)


# Free blocks of mixed widths, so the draw is split into two stacked QRs.
MIXED = SchemeSpec(
    "mixed-widths", "x-channel", extension=3,
    stream_rx=((0, 0, 1, 1), (0, 0, 1, 1)),
    free_blocks=((0, (0, 1)), (1, (2,)), (0, (2, 3)), (1, (0,)), (1, (1, 3))),
)


@pytest.mark.parametrize("spec", [scheme_spec(tag) for tag in RANDOMIZED] + [MIXED], ids=lambda s: s.tag)
def test_batched_draw_is_the_sequential_draws(spec):
    columns = schemes._free_columns(spec, np.random.default_rng(3), CANDIDATE_DRAWS)
    rng = np.random.default_rng(3)
    for d in range(CANDIDATE_DRAWS):
        for tx, cols in spec.free_blocks:
            block = _sequential_block(rng, 2 * spec.extension, len(cols))
            for k, c in enumerate(cols):
                assert np.array_equal(columns[tx, c][d], block[:, k])


@pytest.mark.parametrize("tag", RANDOMIZED)
def test_first_candidate_of_the_batch_is_a_lone_draw(tag, monkeypatch):
    spec, chn = scheme_spec(tag), sample_feasible_channel(tag, 2)
    batch, scores = schemes._candidates(spec, chn, 2)
    monkeypatch.setattr(schemes, "CANDIDATE_DRAWS", 1)
    lone, lone_scores = schemes._candidates(spec, chn, 2)
    assert lone_scores.shape == (1,) and lone_scores[0] == scores[0]
    for key, col in lone.items():
        assert np.array_equal(col[0], batch[key][0])


@pytest.mark.parametrize("tag", RANDOMIZED)
def test_winning_score_is_the_built_sets_smallest_singular_value(tag):
    for seed in range(4):
        chn = sample_feasible_channel(tag, seed)
        _, scores = schemes._candidates(scheme_spec(tag), chn, seed)
        report = independence_margin(build_scheme(tag, chn, seed), chn)
        assert scores.max() == min(r.singular_values.min() for r in report.receivers)


@pytest.mark.parametrize("tag", RANDOMIZED)
def test_stacked_derivations_are_the_per_candidate_products(tag):
    # A lone pair is one matvec per candidate, a run of pairs one matrix product.
    spec, chn = scheme_spec(tag), sample_feasible_channel(tag, 1)
    derivations = schemes._derivations(spec, chn.phase)
    columns = schemes._free_columns(spec, np.random.default_rng(1), CANDIDATE_DRAWS)
    schemes._derive_columns(derivations, columns)
    for d in range(CANDIDATE_DRAWS):
        single = {key: col[d] for key, col in columns.items()}
        for rot, group in derivations:
            if len(group) == 1:
                assert np.array_equal(columns[group[0].dropped][d], rot @ single[group[0].kept])
                continue
            block = rot @ np.column_stack([single[p.kept] for p in group])
            for k, pair in enumerate(group):
                assert np.array_equal(columns[pair.dropped][d], block[:, k])


def _transmitter_major_rates(bf, chn, snrs: np.ndarray) -> list[tuple[tuple[float, ...], float]]:
    """Per grid point, (per_receiver, sum_rate) computed apart from the pass:
    combiners and gains solved into a dict keyed by (tx, column), then gains,
    power shares and link gains gathered in transmitter order into arrays,
    one SINR and rate block over grid points x streams, summed by receiver."""
    spec = bf.spec
    gains = {}
    for rx in range(spec.shape[0]):
        stack, _ = receiver_stack(bf, chn, rx)
        for j, key in enumerate(spec.desired_streams(rx)):
            own = stack[:, j].copy()
            others = np.delete(stack, j, axis=1)
            coeffs, *_ = np.linalg.lstsq(others, own, rcond=None)
            w = own - others @ coeffs
            w = w / float(np.linalg.norm(w))
            gains[key] = float(w @ own)
    S, streams = spec.extension, spec.streams()
    share = np.array([1.0 / len(spec.stream_rx[t]) for t, _, _ in streams])
    link = np.array([chn.magnitude[rx, t] ** 2 for t, _, rx in streams])
    gain2 = np.array([gains[(t, c)] ** 2 for t, c, _ in streams])
    rate = 0.5 * np.log2(1.0 + S * snrs[:, None] * share * link * gain2 / NOISE_VAR_PER_REAL_DIM)
    block = np.zeros((snrs.size, spec.shape[0]))
    for k, (_, _, rx) in enumerate(streams):
        block[:, rx] += rate[:, k]
    return [(tuple(float(x) / S for x in row), float(row.sum()) / S) for row in block]


GRID_21_DB = tuple(60 + 2.5 * i for i in range(21))


@pytest.mark.parametrize("tag", SCHEME_TAGS)
def test_rates_added_up_in_the_zero_forcing_pass_are_the_transmitter_major_sums(tag):
    for seed in range(3):
        if scheme_spec(tag).sampleable:
            chn = sample_feasible_channel(tag, seed)
        else:
            chn = construct_special_channel("phase-example")
        bf = build_scheme(tag, chn, seed)
        for grid in (DEFAULT_SNR_GRID_DB, GRID_21_DB):
            snrs = np.array(_db_to_linear(grid))
            reports = rate_reports(bf, chn, snrs)
            assert [(r.per_receiver, r.sum_rate) for r in reports] == _transmitter_major_rates(bf, chn, snrs)
