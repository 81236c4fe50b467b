"""The numerical identities the stacked builder relies on, pinned bit for bit.

The builder draws, derives and scores all candidates of one build as one
stacked batch, and the recorded sweep digests hold only because each stacked
operation gives, per candidate, exactly the bits of the one-at-a-time
operation it replaces.  Each identity gets its own test here, so a change in
the numerical stack (numpy, its BLAS or LAPACK) fails at the named contract
rather than as an opaque digest mismatch.  Every comparison is np.array_equal
or ==, never a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsalign import schemes
from acsalign.channel import ComplexChannelMatrix
from acsalign.schemes import CANDIDATE_DRAWS, SchemeSpec, build_scheme, sample_feasible_channel, scheme_spec
from acsalign.verify import _stack, independence_margin

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
