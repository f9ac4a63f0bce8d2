"""The rollout sampler and the block-sum kernel against their oracles.

Both kernels promise bit equality with the plain idioms in ``oracles.py``,
so every comparison here is ``array_equal``, except the finished gradient's
against the per-step route, which rounds differently.
"""
import numpy as np
import pytest
from conftest import rollout_steps
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    block_signals_oracle,
    inverse_cdf_oracle,
    rollout_oracle,
    score_step_oracle,
)

from mapgvar import MarkovGame, rollout
from mapgvar.estimators import (
    STEP_BLOCK_ELEMENTS,
    WINDOW_CAP,
    WINDOW_MAX_ELEMENTS,
    add_block_signals,
    cdf_table,
    inverse_cdf,
    rollout_draws,
    rollout_window,
    subtract_block_policy,
)


def _prob_rows(rng, shape, zero_frac, scale):
    """Nonnegative rows over the last axis, with zeros, summing to ``scale``."""
    w = rng.random(shape)
    w[rng.random(shape) < zero_frac] = 0.0
    totals = w.sum(axis=-1, keepdims=True)
    return np.divide(w, totals, out=np.zeros(shape), where=totals > 0) * scale


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 130),
    lead=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    zero_frac=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    scale=st.sampled_from([1.0, 0.999, 0.5, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_cdf_equals_compare_count_clip(width, lead, zero_frac, scale, seed):
    rng = np.random.default_rng(seed)
    probs = _prob_rows(rng, (*lead, width), zero_frac, scale)
    cdf = np.cumsum(probs, axis=-1).reshape(-1, width)
    n_rows = cdf.shape[0]
    # uniform draws, draws landing exactly on CDF values (ties), and 0.0
    rows = rng.integers(0, n_rows, size=96)
    u = np.concatenate(
        (
            rng.random(32),
            cdf[rows[32:80], rng.integers(0, width, size=48)],
            np.zeros(8),
            np.nextafter(cdf[rows[88:], -1], 0.0),
        )
    )
    table = cdf_table(probs)
    got = inverse_cdf(table, rows * table.shape[1], u)
    assert np.array_equal(got, inverse_cdf_oracle(cdf[rows], u))


def test_cdf_table_pads_to_one_less_than_a_power_of_two():
    for width, padded in ((1, 0), (2, 1), (3, 3), (4, 3), (5, 7), (129, 255)):
        table = cdf_table(np.full((2, width), 1.0 / width))
        assert table.shape == (2, padded)
        assert np.all(np.isinf(table[:, width - 1 :]))
    # padded to a wider table's width, so that tables stack
    for width, stack_width, padded in ((1, 9, 15), (3, 2, 3), (2, 5, 7)):
        table = cdf_table(np.full((2, width), 1.0 / width), stack_width)
        assert table.shape == (2, padded)
        assert np.all(np.isinf(table[:, width - 1 :]))


@settings(max_examples=150, deadline=None)
@given(
    widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    n_states=st.integers(1, 3),
    m=st.integers(1, 6),
    horizon=st.integers(1, 8),
    zero_frac=st.sampled_from([0.0, 0.3, 0.8]),
    scale=st.sampled_from([1.0, 0.999, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_agent_draws_equal_per_agent_draws(
    widths, n_states, m, horizon, zero_frac, scale, seed
):
    # agents of mixed widths share one +inf-padded table in rollout
    rng = np.random.default_rng(seed)
    game = _random_game(rng, widths, n_states)
    pi_tables = [_prob_rows(rng, (n_states, k), zero_frac, scale) for k in widths]
    _assert_rollout_equals_oracle(game, pi_tables, m, horizon, int(rng.integers(2**32)))


def _random_game(rng, widths, n_states):
    n_joint = int(np.prod(widths))
    return MarkovGame(
        n_agents=len(widths),
        states=tuple(f"s{i}" for i in range(n_states)),
        action_spaces=tuple(tuple(f"a{j}" for j in range(k)) for k in widths),
        transition=rng.dirichlet(np.ones(n_states), size=(n_states, n_joint)),
        reward=np.zeros((n_states, n_joint)),
        beta=1.0,
        gamma=0.9,
        initial_dist=rng.dirichlet(np.ones(n_states)),
    )


def _assert_rollout_equals_oracle(game, pi_tables, m, horizon, draw_seed):
    """rollout's blocks, step for step, and the generator state after them
    equal the oracle's; returns the block lengths."""
    got_rng = np.random.default_rng(draw_seed)
    want_rng = np.random.default_rng(draw_seed)
    blocks = list(rollout(game, pi_tables, m, horizon, got_rng))
    got = rollout_steps(blocks)
    want = rollout_oracle(game, pi_tables, m, horizon, want_rng)
    assert len(got) == len(want) == horizon
    for got_step, want_step in zip(got, want):
        for g, w in zip(got_step, want_step):
            assert np.array_equal(g, w)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return [len(block[0]) for block in blocks]


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    n_states=st.integers(1, 4),
    size=st.sampled_from(["small", "largest window", "smallest per-step", "per-step"]),
    horizon=st.sampled_from(
        [1, 2, 7, WINDOW_CAP - 1, WINDOW_CAP, WINDOW_CAP + 1, 2 * WINDOW_CAP + 3]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_rollout_blocks_equal_the_oracle_in_both_regimes(
    widths, n_states, size, horizon, seed
):
    # m on both sides of the cost rule's boundary: the largest batch that
    # still runs windows, and the smallest that runs the per-step path
    largest = WINDOW_MAX_ELEMENTS // ((len(widths) + 1) * n_states)
    m = {"small": 3, "largest window": largest, "smallest per-step": largest + 1,
         "per-step": 2 * largest}[size]
    window = rollout_window(len(widths), n_states, m)
    per_step = min(WINDOW_CAP, max(1, STEP_BLOCK_ELEMENTS // m))
    assert window == (WINDOW_CAP if m <= largest else per_step)
    rng = np.random.default_rng(seed)
    game = _random_game(rng, widths, n_states)
    pi_tables = [_prob_rows(rng, (n_states, k), 0.3, 1.0) for k in widths]
    lengths = _assert_rollout_equals_oracle(
        game, pi_tables, m, horizon, int(rng.integers(2**32))
    )
    full, rest = divmod(horizon, window)
    assert lengths == [window] * full + [rest] * (rest > 0)


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    n_states=st.integers(40, 100),
    size=st.sampled_from(["largest window", "one"]),
    horizon=st.sampled_from([WINDOW_CAP - 1, WINDOW_CAP + 1, 2 * WINDOW_CAP + 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_plane_windows_equal_the_oracle(widths, n_states, size, horizon, seed):
    # windows over 40-100 states, where each step's successor plane is wide
    # and the chase follows m trajectories through it
    n = len(widths)
    largest = WINDOW_MAX_ELEMENTS // ((n + 1) * n_states)
    m = {"largest window": largest, "one": 1}[size]
    assert rollout_window(n, n_states, m) == WINDOW_CAP
    rng = np.random.default_rng(seed)
    game = _random_game(rng, widths, n_states)
    pi_tables = [_prob_rows(rng, (n_states, k), 0.3, 1.0) for k in widths]
    lengths = _assert_rollout_equals_oracle(
        game, pi_tables, m, horizon, int(rng.integers(2**32))
    )
    full, rest = divmod(horizon, WINDOW_CAP)
    assert lengths == [WINDOW_CAP] * full + [rest] * (rest > 0)


@pytest.mark.parametrize(
    "widths, n_states, m, horizon, window",
    [
        # per-step batches whose blocks are 1, 2 and WINDOW_CAP steps long;
        # the last two horizons leave a short last block
        ((2, 3), 3, STEP_BLOCK_ELEMENTS // 2 + 1, 3, 1),
        ((2, 3), 3, STEP_BLOCK_ELEMENTS // 2, 5, 2),
        ((2,), 40, STEP_BLOCK_ELEMENTS // WINDOW_CAP, 2 * WINDOW_CAP + 3, WINDOW_CAP),
    ],
)
def test_per_step_blocks_of_one_two_and_cap_steps_equal_the_oracle(
    widths, n_states, m, horizon, window
):
    assert (len(widths) + 1) * n_states * m > WINDOW_MAX_ELEMENTS  # no windows
    assert rollout_window(len(widths), n_states, m) == window
    rng = np.random.default_rng(window)
    game = _random_game(rng, widths, n_states)
    pi_tables = [_prob_rows(rng, (n_states, k), 0.3, 1.0) for k in widths]
    lengths = _assert_rollout_equals_oracle(
        game, pi_tables, m, horizon, int(rng.integers(2**32))
    )
    full, rest = divmod(horizon, window)
    assert lengths == [window] * full + [rest] * (rest > 0)


def test_no_block_is_longer_than_the_cap():
    rng = np.random.default_rng(3)
    game = _random_game(rng, (2, 3), 3)
    pi_tables = [_prob_rows(rng, (3, k), 0.0, 1.0) for k in (2, 3)]
    horizon = 3 * WINDOW_CAP + 7
    # up to the largest batch with windows, then two per-step batches,
    # whose blocks are shorter than WINDOW_CAP
    for m in (1, 8, WINDOW_MAX_ELEMENTS // 9, WINDOW_MAX_ELEMENTS // 9 + 1, 300):
        blocks = rollout(game, pi_tables, m, horizon, np.random.default_rng(4))
        lengths = [len(s) for s, _, _, _ in blocks]
        assert max(lengths) == rollout_window(game.n_agents, 3, m) <= WINDOW_CAP
        assert sum(lengths) == horizon


@pytest.mark.parametrize("m", [8, WINDOW_MAX_ELEMENTS // 9 + 1])  # windows, per-step
def test_rollout_draws_counts_the_doubles_a_rollout_takes(m):
    rng = np.random.default_rng(3)
    game = _random_game(rng, (2, 3), 3)
    pi_tables = [_prob_rows(rng, (3, k), 0.0, 1.0) for k in (2, 3)]
    horizon = WINDOW_CAP + 7
    ran, skipped = np.random.default_rng(5), np.random.default_rng(5)
    for _ in rollout(game, pi_tables, m, horizon, ran):
        pass
    skipped.bit_generator.advance(rollout_draws(game.n_agents, m, horizon))
    assert ran.bit_generator.state == skipped.bit_generator.state


def _trajectories(rng, n_states, k, steps, batch):
    """Few states over many steps, so every trajectory revisits cells."""
    states = rng.integers(0, n_states, size=(steps, batch))
    own = rng.integers(0, k, size=(steps, batch))
    pi = _prob_rows(rng, (n_states, k), 0.2, 1.0)
    # signals spanning magnitudes, so a different summation order rounds differently
    magnitude = 10.0 ** rng.integers(-3, 4, (steps, batch))
    val = rng.standard_normal((steps, batch)) * magnitude
    return states, own, pi, val


def _block_sums(rng, batch, n_states, k):
    """Nonzero starting buffers, so every rounding of the sums counts."""
    return rng.standard_normal(batch * n_states * k), rng.standard_normal(batch * n_states)


@settings(max_examples=60, deadline=None)
@given(
    n_states=st.integers(1, 4),
    k=st.integers(1, 5),
    steps=st.integers(1, 30),
    batch=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_add_block_signals_equals_the_per_sample_loop(n_states, k, steps, batch, seed):
    rng = np.random.default_rng(seed)
    states, own, pi, val = _trajectories(rng, n_states, k, steps, batch)
    blocks = np.arange(batch) * n_states + states  # train's and mc_variance's blocks
    start = _block_sums(rng, batch, n_states, k)
    expected = tuple(x.copy() for x in start)
    block_signals_oracle(*expected, blocks, own, val)

    per_step = tuple(x.copy() for x in start)  # one (m,) call per step
    for t in range(steps):
        add_block_signals(*per_step, blocks[t], own[t], val[t])
    stacked = tuple(x.copy() for x in start)  # one (steps, batch) call
    add_block_signals(*stacked, blocks, own, val)

    for got in (per_step, stacked):
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))


@pytest.mark.parametrize("seed", range(8))
def test_block_signals_split_at_random_boundaries_equal_one_call(seed):
    # mc_variance sums each rollout block as it comes; cut the horizon at
    # random step boundaries, and the sums hold the bits of one call
    rng = np.random.default_rng(seed)
    n_states, k, steps, batch = 3, 4, 60, 25
    states, own, pi, val = _trajectories(rng, n_states, k, steps, batch)
    blocks = np.arange(batch) * n_states + states
    start = _block_sums(rng, batch, n_states, k)
    whole = tuple(x.copy() for x in start)
    add_block_signals(*whole, blocks, own, val)
    cuts = np.sort(rng.choice(np.arange(1, steps), size=rng.integers(1, 10), replace=False))
    pieces = tuple(x.copy() for x in start)
    for at in np.split(np.arange(steps), cuts):
        add_block_signals(*pieces, blocks[at], own[at], val[at])
    assert all(np.array_equal(g, e) for g, e in zip(pieces, whole))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("steps", [1, 7, 40])
def test_block_gradient_matches_the_per_step_route(k, steps):
    # the finished sums, own_sums - block_sums * pi, against the old per-step
    # update val * (e_a - pi), within 1e-12 of each block's sum of |val|
    rng = np.random.default_rng(10 * k + steps)
    n_states, batch = 3, 50
    states, own, pi, val = _trajectories(rng, n_states, k, steps, batch)
    expected = np.zeros((batch, n_states, k))
    for t in range(steps):
        score_step_oracle(expected, states[t], own[t], pi, val[t])
    blocks = np.arange(batch) * n_states + states
    got, totals = np.zeros(batch * n_states * k), np.zeros((batch, n_states))
    add_block_signals(got, totals.reshape(-1), blocks, own, val)
    subtract_block_policy(got.reshape(expected.shape), totals, pi)
    scale = np.zeros(batch * n_states)
    np.add.at(scale, blocks.reshape(-1), np.abs(val).reshape(-1))
    err = np.abs(got.reshape(expected.shape) - expected).max(axis=-1)
    assert np.all(err <= 1e-12 * scale.reshape(batch, n_states))
