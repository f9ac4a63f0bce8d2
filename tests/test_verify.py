"""``verify.check_game`` against its one-call-at-a-time reference: the
per-state kernels must give every check the same bits. ``verify.tally``
against the per-game fold it replaced. ``run_suites`` against one
``check_game`` call per game: its report, and the error it raises, must
not depend on how many processes check the games."""
import dataclasses
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import assert_no_child_left, counting_forks
from oracles import check_game_oracle, tally_oracle

from mapgvar import MarkovGame, random_game, random_softmax_policy, solve_values
from mapgvar import processes, verify
from mapgvar.verify import SUITES, check_game, run_suites, tally


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
    got_rng, want_rng = np.random.default_rng(seed + 2), np.random.default_rng(seed + 2)
    got = check_game(game, policy, tables, got_rng, sabotage)
    want = check_game_oracle(game, policy, tables, want_rng, sabotage)
    assert list(got) == list(SUITES)
    assert _bits(got) == _bits(want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _bits(found: dict) -> dict:
    """Each check as (violated, the statistic's exact bits or None)."""
    return {
        name: [(bool(v), None if x is None else float(x).hex()) for v, x in checks]
        for name, checks in found.items()
    }


# ties, both zeros and the start values, so that which equal element a fold
# keeps shows in the JSON
_STATISTICS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, 1e-300])


@st.composite
def _games_checks(draw):
    """Check lists of 0-4 games, each suite with 1-3 checks per game."""
    return [
        {
            name: [
                (draw(st.sampled_from([False, True, np.False_, np.True_])),
                 None if stat is None else draw(_STATISTICS))
                for _ in range(draw(st.integers(1, 3)))
            ]
            for name, stat in SUITES.items()
        }
        for _ in range(draw(st.integers(0, 4)))
    ]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(found=_games_checks())
def test_tally_equals_the_per_game_fold(found):
    got = tally(found)
    assert json.dumps(got) == json.dumps(tally_oracle(found))
    assert all(type(entry["violations"]) is int for entry in got.values())


def _serial_suites(n_games, n_agents, seed, sabotage):
    """run_suites' suite entries from one check_game call per game, in game
    order, in this process, folded by the per-game reference fold."""
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(n_games):
        n_states, n_actions = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        game_seed = int(rng.integers(0, 2**31 - 1))
        game = random_game(n_agents, n_states, n_actions, seed=game_seed)
        policy = random_softmax_policy(game, rng)
        found.append(check_game(game, policy, solve_values(game, policy), rng, sabotage))
    return tally_oracle(found)


@pytest.mark.parametrize("sabotage", [False, True])
@pytest.mark.parametrize("n_agents", [1, 2, 3])
@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_run_suites_does_not_depend_on_the_process_count(
    monkeypatch, cpus, n_agents, sabotage
):
    n_games, seed = 7, 10 * n_agents + sabotage
    want = _serial_suites(n_games, n_agents, seed, sabotage)
    monkeypatch.setattr(processes, "_cpu_count", lambda: cpus)
    forks = counting_forks(monkeypatch)
    got = run_suites(n_games, n_agents, seed, sabotage)
    assert len(forks) == min(n_games, cpus) - 1
    assert_no_child_left()
    assert json.dumps(got["suites"]) == json.dumps(want)


def test_run_suites_never_forks_while_other_threads_run(monkeypatch):
    monkeypatch.setattr(processes, "_cpu_count", lambda: 4)
    threadless = run_suites(6, 2, 3)
    monkeypatch.setattr(os, "fork", None)  # a call would raise TypeError
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        threaded = run_suites(6, 2, 3)
    finally:
        parked.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert json.dumps(threaded) == json.dumps(threadless)


def test_one_game_is_checked_in_the_caller(monkeypatch):
    want = run_suites(1, 3, 4)
    monkeypatch.setattr(processes, "_cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", None)  # a call would raise TypeError
    assert json.dumps(run_suites(1, 3, 4)) == json.dumps(want)


def _failing_games(monkeypatch, failing) -> list:
    """Make ``solve_values`` raise ValueError("game g") on each game g of
    ``failing``, in whichever process checks it. Returns the policies drawn,
    in game order."""
    policies = []
    draw, solve = verify.random_softmax_policy, verify.solve_values

    def recorded(*args):
        policies.append(draw(*args))
        return policies[-1]

    def failing_solve(game, policy):
        g = next(g for g, drawn in enumerate(policies) if drawn is policy)
        if g in failing:
            raise ValueError(f"game {g}")
        return solve(game, policy)

    monkeypatch.setattr(verify, "random_softmax_policy", recorded)
    monkeypatch.setattr(verify, "solve_values", failing_solve)
    return policies


# with two processes the caller checks the even games and a child the odd ones
@pytest.mark.parametrize(
    "failing, first",
    [({1, 2, 3}, 1), ({2, 3, 5}, 2), ({7}, 7)],
    ids=["in-a-child", "in-the-caller", "last"],
)
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_lowest_failing_game_raises(monkeypatch, cpus, failing, first):
    _failing_games(monkeypatch, failing)
    monkeypatch.setattr(processes, "_cpu_count", lambda: cpus)
    with pytest.raises(ValueError, match=f"^game {first}$"):
        run_suites(8, 2, 0)
    assert_no_child_left()


@pytest.mark.parametrize("failing", [{1}, set()], ids=["game-1-fails", "none-fails"])
def test_a_refused_draw_raises_before_any_game_is_checked(monkeypatch, failing):
    policies = _failing_games(monkeypatch, failing)
    check = verify._check_lattice_size

    def refuse_the_fourth(shape):
        if len(policies) == 3:
            raise ValueError("refused")
        check(shape)

    monkeypatch.setattr(verify, "_check_lattice_size", refuse_the_fourth)
    monkeypatch.setattr(processes, "_cpu_count", lambda: 2)
    forks = counting_forks(monkeypatch)
    with pytest.raises(ValueError, match="^refused$"):
        run_suites(8, 2, 0)
    assert len(policies) == 3
    assert forks == []
    assert_no_child_left()
