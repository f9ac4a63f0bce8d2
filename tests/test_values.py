import dataclasses
import itertools
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    decomposition_of,
    discounted_state_occupancy,
    exact_discounted_solve,
    marginal_q,
    marginal_q_oracle,
    marginal_q_tensor,
    multi_agent_advantage,
    vi_q_oracle,
)

from mapgvar import (
    EnumerationCapExceeded,
    JointPolicy,
    MarkovGame,
    SingularSystem,
    SoftmaxPolicy,
    agent_subset,
    exact_policy_gradient,
    joint_action_prob_table,
    marginal_q_lattice,
    policy_transition,
    random_game,
    random_softmax_policy,
    solve_values,
    state_distributions,
    uniform_policy,
)
from mapgvar.estimators import mean_step_gradient_by_state


# ---------------------------------------------------------------------------
# the solver


def test_solve_matches_value_iteration(corpus30):
    worst = 0.0
    for game, policy, tables in corpus30:
        oracle = vi_q_oracle(game, policy)
        worst = max(worst, float(np.abs(tables.q - oracle).max()))
    assert worst < 1e-9, worst


def test_value_tables_invariants(corpus100):
    for game, policy, tables in corpus100:
        bound = game.beta / (1.0 - game.gamma)
        assert np.abs(tables.q).max() <= bound + 1e-9
        # v is the policy average of q by construction
        probs = joint_action_prob_table(game, policy)
        np.testing.assert_allclose(
            tables.v, (probs * tables.q).sum(axis=1), atol=1e-9
        )


def test_gamma_zero_collapses_to_reward():
    game = random_game(2, 2, 2, seed=77)
    game = MarkovGame(
        n_agents=game.n_agents,
        states=game.states,
        action_spaces=game.action_spaces,
        transition=game.transition,
        reward=game.reward,
        beta=game.beta,
        gamma=0.0,
        initial_dist=game.initial_dist,
    )
    tables = solve_values(game, uniform_policy(game))
    np.testing.assert_allclose(tables.q, game.reward, atol=1e-12)


def test_singular_system_raised(monkeypatch):
    # with stochastic rows and gamma < 1 the system is never singular, so the
    # solver's failure is forced; it must be raised, not junk returned
    game = random_game(2, 3, 2, seed=1)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularSystem, match="value system is singular"):
        solve_values(game, uniform_policy(game))


def test_singular_occupancy_system_raised(monkeypatch):
    # the occupancy solve goes through the same check as the value solve
    game = random_game(2, 3, 2, seed=1)
    policy = uniform_policy(game)
    tables = solve_values(game, policy)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularSystem, match="value system is singular"):
        exact_policy_gradient(game, policy, tables, 0)


def _nan_at_zero(x):
    x[0] = np.nan
    return x


@pytest.mark.parametrize(
    "corrupt, error",
    [(_nan_at_zero, "inf"), (lambda x: x * (1.0 + 1e-8), r"\d\.\d+e-\d+")],
    ids=["one nan", "relative 1e-8"],
)
@pytest.mark.parametrize("solver", ["values", "occupancy"])
def test_a_corrupted_solve_is_refused_by_its_backward_error(
    monkeypatch, corrupt, error, solver
):
    game = random_game(2, 3, 2, seed=1)
    policy = uniform_policy(game)
    tables = solve_values(game, policy)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: corrupt(solve(a, b)))
    limit = re.escape(f"above 4 * S * eps = {4 * 3 * float(np.finfo(float).eps)!r}")
    message = f"value system of 3 states: normwise backward error {error} {limit}"
    with pytest.raises(SingularSystem, match=message):
        if solver == "values":
            solve_values(game, policy)
        else:
            exact_policy_gradient(game, policy, tables, 0)


def test_an_all_zero_reward_solves_to_zero():
    # v = r_pi = 0 leaves a zero residual, whose backward error is 0, not 0/0
    game = random_game(2, 3, 2, seed=1)
    game = dataclasses.replace(game, reward=np.zeros_like(game.reward))
    tables = solve_values(game, uniform_policy(game))
    assert not tables.v.any() and not tables.q.any()


def _backward_error(game, policy, v):
    """max|Mv - r_pi| / (||M|| max|v| + max|r_pi|), infinity norms."""
    probs = joint_action_prob_table(game, policy)
    r_pi = np.einsum("sa,sa->s", probs, game.reward)
    m = np.eye(game.n_states) - game.gamma * policy_transition(game, policy)
    residual = np.abs(m @ v - r_pi).max()
    return residual / (np.abs(m).sum(axis=1).max() * np.abs(v).max()
                       + np.abs(r_pi).max())


@pytest.mark.parametrize(
    "n_states, gamma",
    [(120, 1 - 1e-7), (3, 1 - 1e-9), (40, 1 - 1e-9), (120, 1 - 1e-9),
     (40, 1 - 1e-12)],
)
def test_solve_near_gamma_one_ends_within_a_second(n_states, gamma):
    # |v| grows like beta / (1 - gamma), so an absolute residual test fails on
    # good solves here; each is judged by its backward error and stands
    game = dataclasses.replace(random_game(2, n_states, 2, seed=3), gamma=gamma)
    policy = uniform_policy(game)
    start = time.perf_counter()
    tables = solve_values(game, policy)
    assert time.perf_counter() - start < 1.0
    eps = np.finfo(float).eps
    assert _backward_error(game, policy, tables.v) <= 4 * n_states * eps
    probs = joint_action_prob_table(game, policy)
    bellman = np.abs(tables.v - (probs * tables.q).sum(axis=1)).max()
    assert bellman <= 1e-9 * np.abs(tables.v).max()


@pytest.mark.parametrize("gamma", [0.9, 0.99, 1 - 1e-4, 1 - 1e-7, 1 - 1e-9, 1 - 1e-12])
def test_solve_and_occupancy_match_exact_elimination(gamma):
    # against the exact solution of the same double system. For stochastic
    # rows ||M^-1|| = 1 / (1 - gamma), so a backward-stable solve lands within
    # about eps * kappa of it, kappa = ||M|| / (1 - gamma): not a few eps, but
    # up to 2e12 eps at 1 - 1e-12, where value iteration cannot converge
    eps = np.finfo(float).eps
    for n_states, seed in itertools.product((1, 2, 3), range(4)):
        game = dataclasses.replace(random_game(2, n_states, 2, seed=seed), gamma=gamma)
        for policy in (uniform_policy(game),
                       random_softmax_policy(game, np.random.default_rng(seed))):
            p_pi = policy_transition(game, policy)
            r_pi = (joint_action_prob_table(game, policy) * game.reward).sum(axis=1)
            kappa = np.abs(np.eye(n_states) - gamma * p_pi).sum(axis=1).max() / (1 - gamma)
            tables = solve_values(game, policy)
            exact_v = exact_discounted_solve(gamma, p_pi, r_pi)
            tol = 4 * eps * kappa * float(max(map(abs, exact_v)))
            assert max(abs(Fraction(x) - y) for x, y in zip(tables.v, exact_v)) <= tol
            eta = exact_discounted_solve(gamma, p_pi.T, game.initial_dist)
            tol = 4 * eps * kappa * max(map(abs, eta))
            for agent in range(game.n_agents):
                by_state = mean_step_gradient_by_state(game, policy, tables, agent)
                grad = exact_policy_gradient(game, policy, tables, agent)
                for g, (s, _), term in zip(grad, np.ndindex(by_state.shape),
                                           by_state.reshape(-1)):
                    exact = eta[s] * Fraction(term)
                    assert abs(Fraction(g) - exact) <= tol * abs(Fraction(term))


def test_solve_rejects_a_one_row_table_on_a_multi_state_game():
    # a (1, k) logit table would broadcast over every state
    game = random_game(2, 3, 2, seed=0)
    policy = JointPolicy((SoftmaxPolicy([[0.5, 0.0]]), SoftmaxPolicy(np.zeros((3, 2)))))
    with pytest.raises(ValueError, match=r"agent 0 logits have shape \(1, 2\)"):
        solve_values(game, policy)


def test_solve_rejects_a_policy_with_more_agents_than_the_game():
    game = random_game(2, 3, 2, seed=0)
    policy = uniform_policy(random_game(3, 3, 2, seed=0))
    with pytest.raises(ValueError, match=r"3 agent\(s\), the game has 2"):
        solve_values(game, policy)


# ---------------------------------------------------------------------------
# coalitions and marginal values


def test_agent_subset_validation():
    assert agent_subset((2, 0), 3) == (2, 0)
    with pytest.raises(ValueError, match="distinct"):
        agent_subset((1, 1), 3)
    with pytest.raises(ValueError, match="out of range"):
        agent_subset((3,), 3)


def _lattice_q(lattice, subset, actions):
    """Q^subset at the given actions, read from a state's lattice."""
    return float(lattice[tuple(sorted(subset))][tuple(a for _, a in sorted(zip(subset, actions)))])


def test_marginal_q_against_enumeration(corpus30):
    rng = np.random.default_rng(1)
    for game, policy, tables in corpus30:
        n = game.n_agents
        s = int(rng.integers(game.n_states))
        lattice = marginal_q_lattice(game, policy, tables, s)
        for size in range(n + 1):
            subset = tuple(rng.permutation(n)[:size].tolist())
            actions = tuple(
                int(rng.integers(game.action_counts[i])) for i in subset
            )
            fast = _lattice_q(lattice, subset, actions)
            assert fast == marginal_q(game, policy, tables, subset, actions, s)
            slow = marginal_q_oracle(game, policy, tables, subset, actions, s)
            assert abs(fast - slow) < 1e-9


def test_marginal_q_edge_cases(corpus30):
    game, policy, tables = corpus30[0]
    s = 0
    lattice = marginal_q_lattice(game, policy, tables, s)
    # empty coalition is V(s)
    assert abs(_lattice_q(lattice, (), ()) - tables.v[s]) < 1e-12
    assert _lattice_q(lattice, (), ()) == marginal_q(game, policy, tables, (), (), s)
    # the full coalition reads the raw q entry
    full = tuple(range(game.n_agents))
    joint = tuple(0 for _ in full)
    expect = tables.q[s, game.joint_action_index(joint)]
    assert _lattice_q(lattice, full, joint) == expect
    # order of the subset must not matter when actions are reordered with it
    if game.n_agents >= 2:
        a = marginal_q(game, policy, tables, (0, 1), (0, 1), s)
        b = marginal_q(game, policy, tables, (1, 0), (1, 0), s)
        assert abs(a - b) < 1e-12
        assert a == _lattice_q(lattice, (1, 0), (1, 0))


def test_marginal_q_tensor_axes(corpus30):
    game, policy, tables = corpus30[1]
    lattice = marginal_q_lattice(game, policy, tables, 0)
    assert lattice[(0,)].shape == (game.action_counts[0],)
    assert lattice[tuple(range(game.n_agents))].shape == game.action_counts
    assert lattice[()].shape == ()


def test_marginal_q_lattice_equals_each_marginal_tensor(corpus30):
    for game, policy, tables in corpus30:
        n = game.n_agents
        for s in range(game.n_states):
            lattice = marginal_q_lattice(game, policy, tables, s)
            assert len(lattice) == 2**n
            for size in range(n + 1):
                for subset in itertools.combinations(range(n), size):
                    expect = marginal_q_tensor(game, policy, tables, subset, s)
                    assert np.array_equal(lattice[subset], expect)


def test_marginal_q_lattice_refuses_a_lattice_above_the_cap():
    # 15 agents of two actions: 2^15 joint actions, 3^15 lattice entries
    game = MarkovGame(
        n_agents=15,
        states=("s0",),
        action_spaces=(("a", "b"),) * 15,
        transition=np.ones((1, 2**15, 1)),
        reward=np.zeros((1, 2**15)),
        beta=1.0,
        gamma=0.5,
        initial_dist=np.ones(1),
    )
    policy = uniform_policy(game)
    tables = solve_values(game, policy)
    start = time.perf_counter()
    with pytest.raises(EnumerationCapExceeded, match="holds 14348907 entries"):
        marginal_q_lattice(game, policy, tables, 0)
    assert time.perf_counter() - start < 1.0


def test_decomposition_on_a_lattice_equals_the_direct_one(corpus30):
    for game, policy, tables in corpus30[:10]:
        n = game.n_agents
        for s in range(game.n_states):
            for order in itertools.permutations(range(n)):
                acts = tuple(j % game.action_counts[i] for j, i in enumerate(order))
                for p in range(n + 1):
                    # the chain of two-marginal advantages the lattice replaces
                    lhs = multi_agent_advantage(
                        game, policy, tables, s, order[:p], acts[:p], order[p:], acts[p:]
                    )
                    rhs = 0.0
                    for j in range(p, n):
                        rhs += multi_agent_advantage(
                            game, policy, tables, s,
                            order[:j], acts[:j], (order[j],), (acts[j],),
                        )
                    assert decomposition_of(
                        game, policy, tables, s, order, acts, p
                    ) == (lhs, rhs)


# ---------------------------------------------------------------------------
# multi-agent advantage


def test_advantage_rejects_overlap(corpus30):
    # an agent both given and acting is a repeated agent in the order
    game, policy, tables = corpus30[0]
    with pytest.raises(ValueError, match="distinct"):
        decomposition_of(game, policy, tables, 0, (0, 0), (0, 0), 1)


def test_advantage_has_zero_policy_mean(corpus30):
    # E_{a^i ~ pi}[A^i(s, given, a^i)] = 0 for any conditioning coalition
    rng = np.random.default_rng(2)
    for game, policy, tables in corpus30[:15]:
        n = game.n_agents
        s = int(rng.integers(game.n_states))
        i = int(rng.integers(n))
        others = [j for j in range(n) if j != i]
        size = int(rng.integers(len(others) + 1))
        given = tuple(others[:size])
        given_actions = tuple(
            int(rng.integers(game.action_counts[j])) for j in given
        )
        total = 0.0
        for a in range(game.action_counts[i]):
            adv, _ = decomposition_of(
                game, policy, tables, s, given + (i,), given_actions + (a,), len(given)
            )
            total += float(policy.probs(i, s)[a]) * adv
        assert abs(total) < 1e-9


def test_advantage_bounded(corpus30):
    for game, policy, tables in corpus30[:10]:
        bound = 2.0 * game.beta / (1.0 - game.gamma) + 1e-9
        for s in range(game.n_states):
            for i in range(game.n_agents):
                for a in range(game.action_counts[i]):
                    adv, _ = decomposition_of(game, policy, tables, s, (i,), (a,))
                    assert abs(adv) <= bound


# ---------------------------------------------------------------------------
# the telescoping decomposition


def test_decomposition_all_orders(corpus30):
    rng = np.random.default_rng(3)
    for game, policy, tables in corpus30:
        n = game.n_agents
        for s in range(game.n_states):
            actions = tuple(
                int(rng.integers(game.action_counts[i])) for i in range(n)
            )
            for order in itertools.permutations(range(n)):
                acts = tuple(actions[i] for i in order)
                lhs, rhs = decomposition_of(game, policy, tables, s, order, acts)
                assert abs(lhs - rhs) < 1e-9


def test_decomposition_with_prefix(corpus30):
    rng = np.random.default_rng(4)
    for game, policy, tables in corpus30:
        n = game.n_agents
        s = int(rng.integers(game.n_states))
        order = tuple(rng.permutation(n).tolist())
        acts = tuple(int(rng.integers(game.action_counts[i])) for i in order)
        for prefix_len in range(n):
            lhs, rhs = decomposition_of(
                game, policy, tables, s, order, acts, prefix_len=prefix_len
            )
            assert abs(lhs - rhs) < 1e-9


def test_decomposition_argument_validation(corpus30):
    game, policy, tables = corpus30[0]
    n = game.n_agents
    order = tuple(range(n))
    with pytest.raises(ValueError, match="one action per agent"):
        decomposition_of(game, policy, tables, 0, order, (0,) * (n + 1))
    with pytest.raises(ValueError, match="prefix_len"):
        decomposition_of(game, policy, tables, 0, order, (0,) * n, prefix_len=n + 1)
    # an action outside [0, k) would wrap or overrun the lattice index
    k = game.action_counts[0]
    for bad in (-1, k):
        with pytest.raises(ValueError, match="out of range"):
            decomposition_of(game, policy, tables, 0, order, (bad,) + (0,) * (n - 1))


# ---------------------------------------------------------------------------
# state distributions


def test_state_distributions_are_distributions(corpus30):
    for game, policy, _ in corpus30[:10]:
        dists = state_distributions(game, policy, 6)
        assert dists.shape == (7, game.n_states)
        np.testing.assert_allclose(dists.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(dists[0], game.initial_dist, atol=1e-15)
        assert np.all(dists >= -1e-15)


def test_state_distributions_rows_do_not_depend_on_the_horizon(corpus30):
    # callers run one long propagation and slice it; the rows must be the same bits
    for game, policy, _ in corpus30[:10]:
        long = state_distributions(game, policy, 300)
        for t in (0, 1, 7, 64, 299):
            assert np.array_equal(long[: t + 1], state_distributions(game, policy, t))


def test_state_distributions_hold_only_the_table_on_long_horizons():
    # a one-state game near gamma = 1 asks for millions of rows within the
    # enumeration cap, so the propagation may hold no per-row Python object
    # (a view costs ~15x its row)
    game = random_game(2, 1, 2, seed=0)
    policy = uniform_policy(game)
    t_max = 200_000
    state_distributions(game, policy, 10)
    tracemalloc.start()
    try:
        dists = state_distributions(game, policy, t_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dists.shape == (t_max + 1, 1)
    assert peak < 1.5 * dists.nbytes, (peak, dists.nbytes)


def test_discounted_occupancy_matches_series(corpus30):
    for game, policy, _ in corpus30[:10]:
        t_max = 2000  # gamma <= 0.99 so the tail is ~1e-9 of the total
        dists = state_distributions(game, policy, t_max)
        series = (game.gamma ** np.arange(t_max + 1)) @ dists
        eta = discounted_state_occupancy(game, policy)
        np.testing.assert_allclose(eta, series, atol=1e-6)
        assert abs(eta.sum() - 1.0 / (1.0 - game.gamma)) < 1e-8
