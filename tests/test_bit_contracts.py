"""The numerical identities the stacked builder and rate layer rely on, pinned bit for bit.

A sweep runs its trials in blocks, and each stage makes one numpy call per
block over all the small matrices the stage handles: the rotations of all
links or derivations, the QRs of all free blocks of a width, the stacks and
SVDs of all receivers of a width, the least-squares solves of all desired
streams of a receiver, and one SINR block per receiver.  The builder also
draws, derives and scores all candidates of each build as one stacked batch.
The recorded sweep digests hold only because each stacked operation gives,
per item, exactly the bits of the one-at-a-time operation it replaces, on the
trial axis as on the others; and the slope fit, which sums and divides every
grid point's rates at once, must give the bits of the per-point sums.  Each
identity gets its own test here, so a change in the numerical stack (numpy,
its BLAS or LAPACK) fails at the named contract rather than as an opaque
digest mismatch.  Every comparison is np.array_equal or ==, never a
tolerance.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsalign import rates, schemes, verify
from acsalign.channel import (
    ComplexChannelMatrix,
    ExtendedRotation,
    construct_special_channel,
    rotation_matrix,
    sample_channel,
)
from acsalign.rates import (
    DEFAULT_SNR_GRID_DB,
    NOISE_VAR_PER_REAL_DIM,
    _block_rates,
    _db_to_linear,
    _set_rates,
    baseline_rate_profile,
    estimate_baseline_dof,
    estimate_dof,
)
from acsalign.schemes import (
    CANDIDATE_DRAWS,
    SCHEME_TAGS,
    SCHEMES,
    SchemeSpec,
    build_scheme,
    sample_feasible_channel,
    scheme_spec,
)
from acsalign.verify import independence_margin, receiver_stack

RANDOMIZED = ["acs-ic3", "x-channel", "uplinks"]

# Free blocks of mixed widths: the draw goes through two stacked QRs, one per width.
MIXED = SchemeSpec(
    "mixed-widths", "x-channel", extension=4,
    stream_rx=((0, 0, 1, 1), (0, 0, 1, 1)),
    free_blocks=((0, (0, 1)), (1, (2,)), (0, (2, 3)), (1, (0,)), (1, (1, 3))),
)
# Ragged receivers: stacks of 4 and 3 columns, made and factored in two batches.
RAGGED = SchemeSpec(
    "ragged", "x-channel", extension=2,
    stream_rx=((0, 0, 1), (1,)),
    free_blocks=((0, (0, 1, 2)), (1, (0,))),
    removed_streams=frozenset({(1, 0, 0)}),
)
# A receiver without desired streams (the third), and no alignments to derive.
IDLE = SchemeSpec("idle-user", "acs-ic3", extension=2, stream_rx=((1, 1), (), (0, 0)),
                  free_blocks=((0, (0, 1)), (2, (0, 1))))
# Stacks of one column: each receiver's combiner is its own image.
LONE = SchemeSpec("lone", "x-channel", stream_rx=((0,), (1,)), free_blocks=((0, (0,)), (1, (0,))),
                  removed_streams=frozenset({(0, 1, 0), (1, 0, 0)}))

SPECS = [scheme_spec(tag) for tag in SCHEME_TAGS] + [MIXED, RAGGED, IDLE, LONE]


def _channel(spec: SchemeSpec, seed: int) -> ComplexChannelMatrix:
    """A channel `spec` builds on: its own sample of seed, or the phase example."""
    if spec.sampleable:
        return spec.sample(seed)
    return construct_special_channel("phase-example")


def _built(spec: SchemeSpec):
    """(seed, channel, beamformers) for three seeds of `spec`."""
    for seed in range(3):
        chn = _channel(spec, seed)
        yield seed, chn, schemes._build(spec, chn, seed)


# A block of trials: five seeds, so no stage's trial axis matches another axis.
BLOCK_SEEDS = [0, 1, 2, 3, 4]


def _block(spec: SchemeSpec) -> tuple[list, list]:
    """The channels and seeds of BLOCK_SEEDS's trials of `spec`."""
    return [_channel(spec, seed) for seed in BLOCK_SEEDS], BLOCK_SEEDS


def _sequential_block(rng: np.random.Generator, dim: int, cols: int) -> np.ndarray:
    """One free block drawn, QR'd and sign-fixed on its own."""
    q, r = np.linalg.qr(rng.standard_normal((dim, cols)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@contextmanager
def _numpy_calls():
    """How many times np.matmul and np.linalg.svd are called while the block runs."""
    counts = {"matmul": 0, "svd": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "matmul", counted(np, "matmul"))
        patch.setattr(np.linalg, "svd", counted(np.linalg, "svd"))
        yield counts


def _lifted(phase: float, S: int) -> np.ndarray:
    """One phase's block rotation as the kron of its 2x2 rotation."""
    return np.kron(np.eye(S), rotation_matrix(phase))


def test_phase_array_cos_and_sin_are_the_per_phase_ones():
    phases = np.random.default_rng(0).uniform(-20.0, 20.0, 20_000)
    assert np.array_equal(ExtendedRotation(phases, 1).matrix, [rotation_matrix(ph) for ph in phases])


@pytest.mark.parametrize("tag", SCHEMES)
def test_link_and_derivation_rotations_are_the_per_phase_rotations(tag):
    spec = scheme_spec(tag)
    S = spec.extension
    for seed in range(3):
        chn = _channel(spec, seed)
        links = chn.link_rotations(S)
        assert links.shape == (*chn.phase.shape, 2 * S, 2 * S) and not links.flags.writeable
        for (rx, tx), phase in np.ndenumerate(chn.phase):
            assert np.array_equal(links[rx][tx], _lifted(phase, S))
        for rot, group in schemes._derivations(spec, chn.phase[None]):
            rx, ktx, dtx = group[0].rx, group[0].kept[0], group[0].dropped[0]
            assert np.array_equal(rot[0], _lifted(chn.phase[rx, ktx] - chn.phase[rx, dtx], S))


@pytest.mark.parametrize("tag", SCHEMES)
def test_a_blocks_rotations_are_each_trials_rotations(tag):
    # All link rotations of a block come from one ExtendedRotation over the
    # (trials, num_rx, num_tx) phases, and so do all derivation rotations.
    spec = scheme_spec(tag)
    channels, _ = _block(spec)
    phases = np.stack([chn.phase for chn in channels])
    links = ExtendedRotation(phases, spec.extension).matrix
    derivations = schemes._derivations(spec, phases)
    for i, chn in enumerate(channels):
        assert np.array_equal(links[i], chn.link_rotations(spec.extension))
        single = schemes._derivations(spec, phases[i:i + 1])
        assert [group for _, group in single] == [group for _, group in derivations]
        for (rot, _), (alone, _) in zip(derivations, single):
            assert np.array_equal(rot[i], alone[0])


@settings(max_examples=60, deadline=None)
@given(
    phases=st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=6, max_size=6),
    S=st.integers(1, 6),
    draws=st.integers(1, CANDIDATE_DRAWS),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_with_trial_and_candidate_axes_is_the_per_column_matvec(phases, S, draws, seed):
    # Two trials' channels: the second's phases are the first's reversed.
    grids = np.reshape(phases, (2, 3)), np.reshape(phases[::-1], (2, 3))
    links = np.stack([ComplexChannelMatrix(np.ones((2, 3)), grid).link_rotations(S) for grid in grids])
    # Columns are strided views into (trials, draws, 2S, 2) blocks, as drawn free columns are.
    blocks = np.random.default_rng(seed).standard_normal((3, 2, draws, 2 * S, 2))
    keys = [(t, c) for t in range(3) for c in range(2)]
    # Three receivers' stacks, two of one width and one of another: one stacked
    # matmul and one stacked SVD per width.
    entries = [(0, keys), (1, keys[1:4]), (1, keys[::-1])]
    with _numpy_calls() as calls:
        found = verify._stacks(lambda t, c: blocks[t][..., c], links, entries)
    assert calls == {"matmul": 2, "svd": 2}
    assert len(found) == len(entries)
    for (_, stack_keys), (stack, svals) in zip(entries, found):
        assert stack.shape == (2, draws, 2 * S, len(stack_keys))
        assert svals.shape == (2, draws, min(2 * S, len(stack_keys)))
    for b in range(2):
        for d in range(draws):
            singles = verify._stacks(lambda t, c: blocks[t][b, d][None, :, c], links[b:b + 1], entries)
            for (rx, stack_keys), (stack, svals), (single, single_svals) in zip(entries, found, singles):
                expected = np.column_stack([links[b, rx, t] @ blocks[t][b, d][:, c] for t, c in stack_keys])
                assert stack[b, d].flags.c_contiguous and np.array_equal(stack[b, d], expected)
                assert single.shape == (1, *expected.shape) and single.flags.c_contiguous
                assert np.array_equal(single[0], expected)
                expected_svals = np.linalg.svd(expected, compute_uv=False)
                assert np.array_equal(svals[b, d], expected_svals) and np.array_equal(single_svals[0], expected_svals)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.tag)
def test_batched_draw_is_the_sequential_draws(spec):
    # Each trial's normals come from its own rng; all trials' blocks of a width
    # go through one stacked QR.
    columns = schemes._free_columns(spec, BLOCK_SEEDS, CANDIDATE_DRAWS)
    assert set(columns) == {(tx, c) for tx, cols in spec.free_blocks for c in cols}
    for b, seed in enumerate(BLOCK_SEEDS):
        rng = np.random.default_rng(seed)
        for d in range(CANDIDATE_DRAWS):
            for tx, cols in spec.free_blocks:
                block = _sequential_block(rng, 2 * spec.extension, len(cols))
                for k, c in enumerate(cols):
                    assert np.array_equal(columns[tx, c][b, d], block[:, k])


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.tag)
def test_all_receiver_stacks_and_svds_are_the_per_receiver_ones(spec):
    for seed, chn, bf in _built(spec):
        links = chn.link_rotations(spec.extension)
        receivers = verify._receivers(bf, chn)
        assert len(receivers) == spec.shape[0]
        for rx, (desired, keys) in enumerate(spec._layout):
            expected = np.column_stack([links[rx][t] @ bf.column(t, c) for t, c in keys])
            (stack,), (svals,) = receivers[rx]
            assert stack.flags.c_contiguous and np.array_equal(stack, expected)
            assert np.array_equal(svals, np.linalg.svd(expected, compute_uv=False))
            own, num_desired = receiver_stack(bf, chn, rx)
            assert num_desired == len(desired)
            assert own.flags.c_contiguous and np.array_equal(own, expected)
        # With the candidate axis: each score is the least of the per-receiver SVDs.
        columns, _, scores = schemes._candidates(spec, [chn], [seed])
        for i, score in enumerate(scores[0]):
            assert score == min(
                np.linalg.svd(np.column_stack([links[rx][t] @ columns[t, c][0, i] for t, c in keys]),
                              compute_uv=False).min()
                for rx, (_, keys) in enumerate(spec._layout))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.tag)
def test_a_blocks_scoring_stacks_and_svds_are_each_trials(spec, monkeypatch):
    # One stacked matmul and one SVD per receiver-stack width (two on ragged,
    # one on every other spec) over the block's trials and candidates.
    channels, seeds = _block(spec)
    calls = []
    real_stacks = schemes._stacks

    def counting_stacks(*args):
        with _numpy_calls() as counts:
            found = real_stacks(*args)
        calls.append(counts)
        return found

    monkeypatch.setattr(schemes, "_stacks", counting_stacks)
    columns, receivers, scores = schemes._candidates(spec, channels, seeds)
    monkeypatch.undo()
    widths = len({len(keys) for _, keys in spec._layout})
    assert calls == [{"matmul": widths, "svd": widths}]
    draws = CANDIDATE_DRAWS if spec.free_blocks else 1
    assert scores.shape == (len(seeds), draws) and len(receivers) == spec.shape[0]
    for i, (chn, seed) in enumerate(zip(channels, seeds)):
        alone_columns, alone_receivers, alone_scores = schemes._candidates(spec, [chn], [seed])
        assert np.array_equal(scores[i], alone_scores[0])
        for key, col in alone_columns.items():
            assert np.array_equal(columns[key][i], col[0])
        for (stacks, svals), (alone_stacks, alone_svals) in zip(receivers, alone_receivers):
            assert all(stack.flags.c_contiguous for stack in stacks[i])
            assert np.array_equal(stacks[i], alone_stacks[0]) and np.array_equal(svals[i], alone_svals[0])


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.tag)
def test_the_winners_stacks_from_scoring_are_the_built_sets_own(spec):
    # The rate layer reads the stacks and singular values the builder's
    # scoring computed; a set a caller built gets the same bits from its columns.
    channels, seeds = _block(spec)
    outcomes, receivers = schemes._build_block(spec, channels, seeds)
    for i, (chn, seed, bf) in enumerate(zip(channels, seeds, outcomes)):
        assert bf == schemes._build(spec, chn, seed)
        for (stacks, svals), ((own,), (own_svals,)) in zip(receivers, verify._receivers(bf, chn)):
            assert stacks[i].flags.c_contiguous and np.array_equal(stacks[i], own)
            assert np.array_equal(svals[i], own_svals)


@pytest.mark.parametrize("tag", RANDOMIZED)
def test_first_candidate_of_the_batch_is_a_lone_draw(tag, monkeypatch):
    spec, chn = scheme_spec(tag), sample_feasible_channel(tag, 2)
    batch, _, scores = schemes._candidates(spec, [chn], [2])
    monkeypatch.setattr(schemes, "CANDIDATE_DRAWS", 1)
    lone, _, lone_scores = schemes._candidates(spec, [chn], [2])
    assert lone_scores.shape == (1, 1) and lone_scores[0, 0] == scores[0, 0]
    for key, col in lone.items():
        assert np.array_equal(col[0, 0], batch[key][0, 0])


@pytest.mark.parametrize("tag", RANDOMIZED)
def test_winning_score_is_the_built_sets_smallest_singular_value(tag):
    for seed in range(4):
        chn = sample_feasible_channel(tag, seed)
        _, _, scores = schemes._candidates(scheme_spec(tag), [chn], [seed])
        report = independence_margin(build_scheme(tag, chn, seed), chn)
        assert scores.max() == min(r.singular_values.min() for r in report.receivers)


@pytest.mark.parametrize("tag", RANDOMIZED)
def test_stacked_derivations_are_the_per_candidate_products(tag):
    # A lone pair is one matvec per trial and candidate, a run of pairs one
    # matrix product; the block's derived columns are each trial's.
    spec = scheme_spec(tag)
    channels, seeds = _block(spec)
    phases = np.stack([chn.phase for chn in channels])
    derivations = schemes._derivations(spec, phases)
    columns = schemes._free_columns(spec, seeds, CANDIDATE_DRAWS)
    schemes._derive_columns(derivations, columns)
    for b, seed in enumerate(seeds):
        alone = schemes._free_columns(spec, [seed], CANDIDATE_DRAWS)
        schemes._derive_columns(schemes._derivations(spec, phases[b:b + 1]), alone)
        assert all(np.array_equal(columns[key][b], col[0]) for key, col in alone.items())
        for d in range(CANDIDATE_DRAWS):
            single = {key: col[b, d] for key, col in columns.items()}
            for rot, group in derivations:
                if len(group) == 1:
                    assert np.array_equal(columns[group[0].dropped][b, d], rot[b] @ single[group[0].kept])
                    continue
                block = rot[b] @ np.column_stack([single[p.kept] for p in group])
                for k, pair in enumerate(group):
                    assert np.array_equal(columns[pair.dropped][b, d], block[:, k])


def test_the_rate_layer_binds_numpys_stacked_lstsq():
    from numpy.linalg import _umath_linalg

    assert rates._LSTSQ is _umath_linalg.lstsq
    rng = np.random.default_rng(0)
    for rows, cols in ((10, 9), (6, 5), (4, 1), (2, 0)):
        a, b = rng.standard_normal((4, rows, cols)), rng.standard_normal((4, rows, 1))
        x = rates._lstsq(a, b)
        assert x.shape == (4, cols, 1)
        for i in range(4):
            assert np.array_equal(x[i, :, 0], np.linalg.lstsq(a[i], b[i, :, 0], rcond=None)[0])
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        rates._lstsq(np.full((1, 4, 3), np.nan), np.ones((1, 4, 1)))


def _per_stream_solve(stack: np.ndarray, j: int) -> tuple[np.ndarray, float]:
    """Stream j's unit combiner and gain from one np.linalg.lstsq on an np.delete copy."""
    own = stack[:, j].copy()
    others = np.delete(stack, j, axis=1)
    coeffs, *_ = np.linalg.lstsq(others, own, rcond=None)
    w = own - others @ coeffs
    w = w / float(np.linalg.norm(w))
    return w, float(w @ own)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.tag)
def test_stacked_gelsd_residuals_and_gains_are_the_per_stream_solves(spec):
    for _, chn, bf in _built(spec):
        solved = list(rates._zf_solve(spec, verify._receivers(bf, chn)))
        assert [rx for rx, _, _ in solved] == list(range(spec.shape[0]))
        for rx, (combiners,), (gains,) in solved:
            stack, d = receiver_stack(bf, chn, rx)
            assert combiners.shape == (d, stack.shape[0]) and gains.shape == (d,)
            for j in range(d):
                w, gain = _per_stream_solve(stack, j)
                assert np.array_equal(combiners[j], w) and gains[j] == gain


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.tag)
def test_a_blocks_gelsd_on_contiguous_copies_is_each_trials(spec):
    # A receiver's "others" copies over the block are made by an index array on
    # every axis, so each is C-contiguous and matmul picks the per-trial kernel.
    channels, seeds = _block(spec)
    outcomes, receivers = schemes._build_block(spec, channels, seeds)
    solved = list(rates._zf_solve(spec, receivers))
    for i, (chn, bf) in enumerate(zip(channels, outcomes)):
        for (rx, combiners, gains), (_, (alone,), (alone_gains,)) in zip(
                solved, rates._zf_solve(spec, verify._receivers(bf, chn))):
            assert np.array_equal(combiners[i], alone) and np.array_equal(gains[i], alone_gains)


def test_batched_squares_are_the_scalar_squares():
    # libm's pow(x, 2), which a Python or numpy scalar's ** 2 calls, and x * x,
    # numpy's array square, can differ in the last bit; float_power is the former.
    x = np.random.default_rng(0).standard_normal(100_000) * 3.0
    assert np.array_equal(np.float_power(x, 2), [v ** 2 for v in x.tolist()])
    assert np.array_equal(np.float_power(x, 2), [v ** 2 for v in x])


def _per_stream_block(bf, chn, snrs: np.ndarray) -> np.ndarray:
    """Per grid point, each receiver's block rate as one SINR row per desired
    stream, added into its receiver's column stream by stream."""
    spec, S = bf.spec, bf.spec.extension
    block = np.zeros((snrs.size, spec.shape[0]))
    for rx in range(spec.shape[0]):
        stack, _ = receiver_stack(bf, chn, rx)
        for j, (t, _) in enumerate(spec.desired_streams(rx)):
            gain = _per_stream_solve(stack, j)[1]
            share = 1.0 / len(spec.stream_rx[t])
            sinr = S * snrs * share * chn.magnitude[rx, t] ** 2 * gain ** 2 / NOISE_VAR_PER_REAL_DIM
            block[:, rx] += 0.5 * np.log2(1.0 + sinr)
    return block


def _transmitter_major_block(bf, chn, snrs: np.ndarray) -> np.ndarray:
    """Per grid point, each receiver's block rate computed apart from the pass:
    gains solved stream by stream into a dict keyed by (tx, column), then gains,
    power shares and link gains gathered in transmitter order into arrays,
    one SINR and rate block over grid points x streams, summed by receiver."""
    spec = bf.spec
    gains = {}
    for rx in range(spec.shape[0]):
        stack, _ = receiver_stack(bf, chn, rx)
        for j, key in enumerate(spec.desired_streams(rx)):
            gains[key] = _per_stream_solve(stack, j)[1]
    S, streams = spec.extension, spec.streams()
    share = np.array([1.0 / len(spec.stream_rx[t]) for t, _, _ in streams])
    link = np.array([chn.magnitude[rx, t] ** 2 for t, _, rx in streams])
    gain2 = np.array([gains[(t, c)] ** 2 for t, c, _ in streams])
    rate = 0.5 * np.log2(1.0 + S * snrs[:, None] * share * link * gain2 / NOISE_VAR_PER_REAL_DIM)
    block = np.zeros((snrs.size, spec.shape[0]))
    for k, (_, _, rx) in enumerate(streams):
        block[:, rx] += rate[:, k]
    return block


GRID_21_DB = tuple(60 + 2.5 * i for i in range(21))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.tag)
def test_rates_added_up_in_the_zero_forcing_pass_are_the_transmitter_major_sums(spec):
    for _, chn, bf in _built(spec):
        for grid in (DEFAULT_SNR_GRID_DB, GRID_21_DB):
            snrs = np.array(_db_to_linear(grid))
            block = _set_rates(bf, chn, snrs)
            assert np.array_equal(block, _per_stream_block(bf, chn, snrs))
            assert np.array_equal(block, _transmitter_major_block(bf, chn, snrs))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.tag)
def test_a_blocks_sinr_sums_are_each_trials(spec):
    # One (trials, grid, streams) SINR block per receiver, its streams' rates
    # added one at a time in desired order.
    channels, seeds = _block(spec)
    outcomes, receivers = schemes._build_block(spec, channels, seeds)
    magnitudes = np.stack([chn.magnitude for chn in channels])
    for grid in (DEFAULT_SNR_GRID_DB, GRID_21_DB):
        snrs = np.array(_db_to_linear(grid))
        block = _block_rates(spec, magnitudes, receivers, snrs)
        assert block.shape == (len(seeds), len(grid), spec.shape[0])
        for i, (chn, bf) in enumerate(zip(channels, outcomes)):
            assert np.array_equal(block[i], _set_rates(bf, chn, snrs))
            assert np.array_equal(block[i], _per_stream_block(bf, chn, snrs))


SQUARE_SEEDS = [38, 108]


@pytest.mark.parametrize("seed", SQUARE_SEEDS)
def test_sinr_blocks_square_as_the_per_stream_rows_do(seed):
    # With glibc's libm, acs-ic3 seed 38 has a gain, and seed 108 a link
    # magnitude, whose x * x is not pow(x, 2); both reach the block rates on
    # the 21-point grid, for a set of its own and as one trial of a block.
    spec = scheme_spec("acs-ic3")
    chn = sample_feasible_channel("acs-ic3", seed)
    bf = build_scheme("acs-ic3", chn, seed)
    gains = np.concatenate([g[0] for _, _, g in rates._zf_solve(spec, verify._receivers(bf, chn))])
    links = np.concatenate([chn.magnitude[rx, [t for t, _ in spec.desired_streams(rx)]] for rx in range(3)])
    snrs = np.array(_db_to_linear(GRID_21_DB))
    expected = _per_stream_block(bf, chn, snrs)
    assert np.array_equal(_set_rates(bf, chn, snrs), expected)
    seeds = SQUARE_SEEDS + [0]
    channels = [sample_feasible_channel("acs-ic3", s) for s in seeds]
    outcomes, receivers = schemes._build_block(spec, channels, seeds)
    block = _block_rates(spec, np.stack([c.magnitude for c in channels]), receivers, snrs)
    i = seeds.index(seed)
    assert outcomes[i] == bf and np.array_equal(block[i], expected)
    squared = np.concatenate([gains, links])
    if np.array_equal(squared * squared, np.float_power(squared, 2)):
        pytest.skip("this libm's pow(x, 2) is x * x on these values, so the seed cannot tell the squares apart")


@pytest.mark.parametrize("tag", SCHEME_TAGS)
def test_the_fits_sums_are_the_per_row_sums(tag):
    # The fit divides and sums all grid points at once; each value must be the
    # one a per-point report gives, float(row.sum()) / S and float(x) / S.
    for seed, chn, bf in _built(scheme_spec(tag)):
        S = bf.spec.extension
        for grid in (DEFAULT_SNR_GRID_DB, GRID_21_DB):
            block = _set_rates(bf, chn, np.array(_db_to_linear(grid)))
            est = estimate_dof(lambda ch, s: bf, chn, seed, grid)
            assert est.sum_rates == tuple(float(row.sum()) / S for row in block)
            assert est.per_user_rates == tuple(tuple(float(x) / S for x in row) for row in block)


def test_the_baseline_fits_sums_are_the_profile_sums():
    channels = [construct_special_channel("phase-example")] + [sample_channel(seed, 3, 3) for seed in range(10)]
    for chn in channels:
        for grid in (DEFAULT_SNR_GRID_DB, GRID_21_DB):
            profiles = [baseline_rate_profile(chn, snr) for snr in _db_to_linear(grid)]
            est = estimate_baseline_dof(chn, grid)
            assert est.sum_rates == tuple(float(p.sum()) for p in profiles)
            assert est.per_user_rates == tuple(tuple(float(r) for r in p) for p in profiles)
    # A block of a spec without streams is rated by the same fits.
    for grid in (DEFAULT_SNR_GRID_DB, GRID_21_DB):
        block = rates._estimate_block(SCHEMES["baseline"], channels, range(len(channels)), grid)
        assert block == [estimate_baseline_dof(chn, grid) for chn in channels]
