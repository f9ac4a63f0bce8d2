"""``verify.check_game`` against its one-call-at-a-time reference: the
per-state kernels must give every tally the same bits."""
import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import check_game_oracle

from mapgvar import MarkovGame, random_softmax_policy, solve_values
from mapgvar.verify import check_game, new_tallies


def _game(widths, n_states, seed):
    """A random game whose agents have the action counts ``widths``."""
    rng = np.random.default_rng(seed)
    n_joint = int(np.prod(widths))
    return MarkovGame(
        n_agents=len(widths),
        states=tuple(f"s{i}" for i in range(n_states)),
        action_spaces=tuple(tuple(f"a{j}" for j in range(k)) for k in widths),
        transition=rng.dirichlet(np.ones(n_states), size=(n_states, n_joint)),
        reward=rng.uniform(-1.0, 1.0, size=(n_states, n_joint)),
        beta=1.0,
        gamma=float(rng.uniform(0.8, 0.99)),
        initial_dist=rng.dirichlet(np.ones(n_states)),
    )


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    widths=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    n_states=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
    gamma_zero=st.booleans(),
    sabotage=st.booleans(),
)
def test_check_game_matches_the_per_call_suites_bit_for_bit(
    widths, n_states, seed, gamma_zero, sabotage
):
    # widths that differ per agent, one agent without a choice, gamma 0 and
    # five agents (one order only) are all inputs run_suites never draws
    game = _game(widths, n_states, seed)
    if gamma_zero:
        game = dataclasses.replace(game, gamma=0.0)
    policy = random_softmax_policy(game, np.random.default_rng(seed + 1))
    tables = solve_values(game, policy)
    got, want = new_tallies(), new_tallies()
    got_rng, want_rng = np.random.default_rng(seed + 2), np.random.default_rng(seed + 2)
    check_game(got, game, policy, tables, got_rng, sabotage)
    check_game_oracle(want, game, policy, tables, want_rng, sabotage)
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
