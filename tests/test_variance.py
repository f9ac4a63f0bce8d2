import dataclasses
import errno
import itertools
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import assert_no_child_left
from oracles import (
    bound_of,
    coma_tables_of,
    gap_bound_oracle,
    identity_of,
    local_variance_oracle,
    mc_of,
    moments_of,
    per_t_variance_oracle,
    trajectory_variance_oracle,
)

from mapgvar import (
    EstimatorKind,
    EstimatorTag,
    MarkovGame,
    advantage_variance_bound,
    advantage_variance_identity,
    baseline_excess_variance,
    bound_constants,
    build_variance_report,
    centralized_gap_bound,
    coma_gap_bound,
    default_horizon,
    excess_variance_bounds,
    expected_score_norm_sq,
    gap_bounds,
    grad_log_softmax,
    local_variance,
    mc_variance,
    ob_surrogate_discrete,
    ob_surrogate_gaussian,
    per_timestep_variances,
    random_game,
    random_softmax_policy,
    rollout,
    signal_table,
    softmax_probs,
    solve_values,
    state_distributions,
    step_moments,
    toy_game,
    toy_policy,
    uniform_policy,
)
import mapgvar.estimators as estimators
import mapgvar.variance as variance
from mapgvar.estimators import agent_prob_table
from mapgvar.variance import ALL_TAGS


# ---------------------------------------------------------------------------
# per-timestep variances against full enumeration


def test_per_timestep_variance_matches_enumeration(corpus30):
    for game, policy, tables in corpus30[:12]:
        dists = state_distributions(game, policy, 3)
        for i in range(game.n_agents):
            for tag in ALL_TAGS:
                kind = EstimatorKind(tag, i)
                fast = per_timestep_variances(
                    moments_of(kind, game, policy, tables), dists
                )
                for t in (0, 2):
                    slow = per_t_variance_oracle(
                        kind, game, policy, tables, dists[t]
                    )
                    assert abs(fast[t] - slow) < 1e-9, (tag, i, t)


def test_variances_are_nonnegative(corpus100):
    for game, policy, tables in corpus100:
        dists = state_distributions(game, policy, 5)
        for tag in ALL_TAGS:
            kind = EstimatorKind(tag, 0)
            v = per_timestep_variances(moments_of(kind, game, policy, tables), dists)
            assert np.all(v >= -1e-12)


def test_decomposition_terms_sum_to_total(corpus30):
    for game, policy, tables in corpus30[:12]:
        dists = state_distributions(game, policy, 4)
        per_t = build_variance_report(game, policy, 0, t_max=4).per_t
        for tag in ALL_TAGS:
            kind = EstimatorKind(tag, 0)
            total = per_timestep_variances(
                moments_of(kind, game, policy, tables), dists
            )
            terms = per_t[tag.value]
            for t in (0, 4):
                state, others, own = (terms[k][t] for k in ("state", "others", "own"))
                assert state >= -1e-12 and others >= -1e-12 and own >= -1e-12
                assert abs((state + others + own) - total[t]) < 1e-9
                assert abs(terms["variance"][t] - total[t]) < 1e-12


def test_only_the_own_term_depends_on_the_baseline(corpus30):
    # state and others' terms are baseline-invariant: the per-row mean
    # vector is unchanged by any row-constant shift of the signal
    for game, policy, _ in corpus30[:12]:
        per_t = build_variance_report(game, policy, 0, t_max=1).per_t
        base = per_t[EstimatorTag.CENTRALIZED_VANILLA.value]
        for tag in (EstimatorTag.COMA, EstimatorTag.OB_X):
            for term in ("state", "others"):
                assert abs(per_t[tag.value][term][1] - base[term][1]) < 1e-9


def test_ob_own_term_never_exceeds_coma_or_vanilla(corpus100):
    for game, policy, _ in corpus100:
        own = {
            tag: terms["own"][0]
            for tag, terms in build_variance_report(game, policy, 0, t_max=0).per_t.items()
        }
        assert own["ob_x"] <= own["coma"] + 1e-9
        assert own["ob_x"] <= own["centralized_vanilla"] + 1e-9


def test_local_variance_matches_two_pass(corpus30):
    rng = np.random.default_rng(12)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        pi = softmax_probs(rng.normal(size=k))
        sig = rng.uniform(-5, 5, size=k)
        grads = [grad_log_softmax(pi, a) for a in range(k)]
        fast = local_variance(pi, sig, grads)
        slow = local_variance_oracle(pi, sig, grads)
        assert abs(fast - slow) < 1e-10


# ---------------------------------------------------------------------------
# the variance chain identity and its upper bound


def test_identity_all_orders_and_prefixes(corpus30):
    rng = np.random.default_rng(13)
    for game, policy, tables in corpus30:
        n = game.n_agents
        for s in range(game.n_states):
            for order in itertools.permutations(range(n)):
                lhs, rhs = identity_of(game, policy, tables, s, order=order)
                assert abs(lhs - rhs) < 1e-9
        # conditional version: fix one random agent's action
        s = int(rng.integers(game.n_states))
        p_agent = int(rng.integers(n))
        p_action = int(rng.integers(game.action_counts[p_agent]))
        order = tuple(j for j in range(n) if j != p_agent)
        lhs, rhs = identity_of(
            game, policy, tables, s, order=order, prefix=((p_agent, p_action),)
        )
        assert abs(lhs - rhs) < 1e-9


def test_bound_never_violated_and_conditional(corpus30):
    rng = np.random.default_rng(14)
    for game, policy, tables in corpus30:
        n = game.n_agents
        for s in range(game.n_states):
            lhs, rhs = bound_of(game, policy, tables, s)
            assert lhs <= rhs + 1e-9
        p_agent = int(rng.integers(n))
        p_action = int(rng.integers(game.action_counts[p_agent]))
        lhs, rhs = bound_of(game, policy, tables, 0, prefix=((p_agent, p_action),))
        assert lhs <= rhs + 1e-9


def test_identity_kernels_reject_a_bad_draw():
    t = np.zeros((2, 3))
    rows = [np.full(2, 0.5), np.full(3, 1 / 3)]
    for kernel in (advantage_variance_identity, advantage_variance_bound):
        assert kernel(t, rows) == (0.0, 0.0)
        for probs in (rows[::-1], rows[:1], rows + [np.ones(1)]):
            with pytest.raises(ValueError, match="does not match"):
                kernel(t, probs)
    # the Gaussian baseline's sampled draw: std > 0 and one q per action
    actions, mean = np.zeros((4, 2)), np.zeros(2)
    for std in (np.array([1.0, 0.0]), np.array([1.0, -1.0])):
        with pytest.raises(ValueError, match="std"):
            ob_surrogate_gaussian(actions, mean, std, np.zeros(4))
    for q_vals in (np.zeros(3), np.zeros((4, 1))):
        with pytest.raises(ValueError, match="one value per"):
            ob_surrogate_gaussian(actions, mean, np.ones(2), q_vals)


def test_single_agent_identity_collapses():
    game = toy_game()
    policy = toy_policy()
    tables = solve_values(game, policy)
    lhs, rhs = identity_of(game, policy, tables, 0)
    assert abs(lhs - rhs) < 1e-12
    bl, br = bound_of(game, policy, tables, 0)
    assert abs(bl - br) < 1e-12  # one agent: the sum has a single term


# ---------------------------------------------------------------------------
# gap bounds


def test_bound_constants_by_hand(corpus30):
    game, policy, tables = corpus30[8]
    consts = bound_constants(game, policy, coma_tables_of(game, policy, tables))
    for i in range(game.n_agents):
        pi_rows = agent_prob_table(game, policy, i)
        worst_score = 0.0
        for s in range(game.n_states):
            for a in range(game.action_counts[i]):
                g = grad_log_softmax(pi_rows[s], a)
                worst_score = max(worst_score, float(np.sqrt(g @ g)))
        assert abs(consts.score_norm_max[i] - worst_score) < 1e-12
    assert consts.adv_abs_max_overall == consts.adv_abs_max.max()


def test_centralized_gap_bound_chain(corpus30):
    for game, policy, _ in corpus30:
        for i in range(game.n_agents):
            report = centralized_gap_bound(game, policy, i)
            assert report.holds
            assert report.truncation_error < 1e-9
            assert report.lhs <= report.bounds[0] + 1e-9
            assert report.bounds[0] <= report.bounds[1] + 1e-9


def test_centralized_per_step_gap_is_nonnegative(corpus30):
    # the centralized estimator is never less noisy than the decentralized
    # one at any single timestep
    for game, policy, tables in corpus30[:15]:
        dists = state_distributions(game, policy, 8)
        for i in range(game.n_agents):
            var_c = per_timestep_variances(
                moments_of(
                    EstimatorKind(EstimatorTag.CENTRALIZED_VANILLA, i),
                    game,
                    policy,
                    tables,
                ),
                dists,
            )
            var_d = per_timestep_variances(
                moments_of(
                    EstimatorKind(EstimatorTag.DECENTRALIZED, i), game, policy, tables
                ),
                dists,
            )
            assert np.all(var_c - var_d >= -1e-12)


def test_coma_gap_bound(corpus30):
    for game, policy, _ in corpus30:
        for i in range(game.n_agents):
            report = coma_gap_bound(game, policy, i)
            assert report.holds
            assert report.truncation_error < 1e-9


def test_gap_bounds_on_a_one_step_game():
    # gamma = 0 removes the tail entirely
    game = random_game(3, 1, 3, seed=31)
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
    policy = uniform_policy(game)
    report = centralized_gap_bound(game, policy, 0)
    assert report.holds and report.truncation_error == 0.0 and report.horizon == 1


def _fields(report):
    return (
        report.lhs, report.bounds, report.horizon, report.truncation_error, report.holds
    )


def test_shared_gap_path_equals_each_bound_computed_on_its_own(corpus30):
    # gap_bounds shares constants, moments and one state-distribution run
    # between agents and bounds; every figure must be the same bits as
    # computing each bound from scratch, standalone or inside a report
    for game, policy, tables in corpus30[:12]:
        pairs = gap_bounds(game, policy, tables, range(game.n_agents))
        for agent, (centralized, coma) in enumerate(pairs):
            expect = tuple(
                gap_bound_oracle(game, policy, agent, tables, tag)
                for tag in (EstimatorTag.CENTRALIZED_VANILLA, EstimatorTag.COMA)
            )
            assert (_fields(centralized), _fields(coma)) == expect
            standalone = (
                centralized_gap_bound(game, policy, agent),
                coma_gap_bound(game, policy, agent),
            )
            assert tuple(map(_fields, standalone)) == expect
            report = build_variance_report(game, policy, agent, t_max=3)
            assert (_fields(report.centralized_gap), _fields(report.coma_gap)) == expect
            consts = bound_constants(game, policy, coma_tables_of(game, policy, tables))
            for rep in (centralized, coma, report.coma_gap):
                for name in ("score_norm_max", "adv_abs_max"):
                    assert np.array_equal(
                        getattr(rep.constants, name), getattr(consts, name)
                    )


def _counting(monkeypatch, module, name, counts):
    """Replace ``module.name`` by a wrapper that counts its calls in ``counts``."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_a_report_builds_each_table_once(monkeypatch, corpus30):
    # one state-distribution run, one signal table per kind of the agent and
    # one COMA table per agent, the agent's serving the bound constants, its
    # COMA moments and, with --mc, its Monte Carlo draws; one step_moments
    # call per agent; gap_bounds builds each agent's others' table once for
    # its DECENTRALIZED signal and once for its moments
    counts = {}
    for module, name in ((variance, "state_distributions"), (variance, "signal_table"),
                         (variance, "step_moments"), (variance, "others_prob_table"),
                         (estimators, "others_prob_table")):
        _counting(monkeypatch, module, name, counts)
    for game, policy, tables in corpus30[:6]:
        n = game.n_agents
        for agent in range(n):
            for mc_trajectories in (0, 2):
                counts.clear()
                build_variance_report(
                    game, policy, agent, t_max=3, mc_trajectories=mc_trajectories
                )
                assert counts["state_distributions"] == 1
                assert counts["signal_table"] == n + 3
                assert counts["step_moments"] == 1
        counts.clear()
        gap_bounds(game, policy, tables, range(n))
        assert counts["state_distributions"] == 1
        assert counts["step_moments"] == n
        assert counts["others_prob_table"] == 2 * n


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    n_states=st.integers(1, 4),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    one_step=st.booleans(),
)
def test_batched_moments_equal_each_kind_computed_alone(n, n_states, k, seed, one_step):
    # step_moments shares the agent's probability tables and score norms
    # between tables; every field must keep the bits of a one-table call
    game = random_game(n, n_states, k, seed=seed)
    if one_step:
        game = dataclasses.replace(game, gamma=0.0)
    policy = random_softmax_policy(game, np.random.default_rng(seed), 2.0)
    tables = solve_values(game, policy)
    for agent in range(n):
        kinds = [EstimatorKind(tag, agent) for tag in ALL_TAGS]
        sigs = [signal_table(kind, game, policy, tables.q) for kind in kinds]
        batched = step_moments(game, policy, agent, sigs)
        for sig, got in zip(sigs, batched):
            [alone] = step_moments(game, policy, agent, [sig])
            for name in ("m2", "mean_sq", "own", "others"):
                assert np.array_equal(getattr(got, name), getattr(alone, name))


# ---------------------------------------------------------------------------
# excess variance of suboptimal baselines


def test_excess_variance_closed_form_matches_direct():
    rng = np.random.default_rng(15)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        pi = softmax_probs(rng.normal(size=k))
        q = rng.uniform(-10, 10, size=k)
        grads = [grad_log_softmax(pi, a) for a in range(k)]
        b_star = ob_surrogate_discrete(q, pi)
        score_sq = expected_score_norm_sq(pi)
        for b in rng.uniform(-15, 15, size=5):
            direct = local_variance(pi, q - b, grads) - local_variance(
                pi, q - b_star, grads
            )
            closed = baseline_excess_variance(float(b), b_star, score_sq)
            assert abs(direct - closed) < 1e-9


def test_excess_variance_from_b_star_equals_the_one_row_form():
    rng = np.random.default_rng(16)
    for k in (2, 3, 6):
        q = rng.normal(size=k) * 4.0
        pi = softmax_probs(rng.normal(size=k))
        b_star = ob_surrogate_discrete(q, pi)
        score_sq = expected_score_norm_sq(pi)
        for b in np.linspace(b_star - 5.0, b_star + 5.0, 21):
            assert baseline_excess_variance(b, b_star, score_sq) == (
                baseline_excess_variance(
                    float(b), ob_surrogate_discrete(q, pi), expected_score_norm_sq(pi)
                )
            )


def test_excess_variance_bounds_hold():
    rng = np.random.default_rng(16)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        pi = softmax_probs(rng.normal(size=k))
        q = rng.uniform(-10, 10, size=k)
        out = excess_variance_bounds(q, pi)
        assert out.holds
        assert out.delta_vanilla >= -1e-12 and out.delta_coma >= -1e-12
        # the coma penalty never exceeds the vanilla penalty bound chain
        assert out.bound_coma <= out.bound_coma_const + 1e-9


def test_expected_score_norm_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(50):
        pi = softmax_probs(rng.normal(size=int(rng.integers(2, 6))))
        direct = sum(
            float(pi[a]) * float(grad_log_softmax(pi, a) @ grad_log_softmax(pi, a))
            for a in range(len(pi))
        )
        assert abs(expected_score_norm_sq(pi) - direct) < 1e-12
        assert abs(expected_score_norm_sq(pi) - (1.0 - pi @ pi)) < 1e-12


# ---------------------------------------------------------------------------
# Monte-Carlo route


def test_mc_variance_on_the_toy_game():
    game = toy_game()
    policy = toy_policy()
    tables = solve_values(game, policy)
    kind = EstimatorKind(EstimatorTag.CENTRALIZED_VANILLA, 0)
    exact = per_timestep_variances(
        moments_of(kind, game, policy, tables),
        state_distributions(game, policy, 0),
    )[0]
    [(est, se)] = mc_of(
        [kind], game, policy, 60_000, 1, np.random.default_rng(42), tables=tables
    )
    assert se > 0
    assert abs(est - exact) <= 4 * se


def test_mc_variance_multi_step_against_path_enumeration():
    game = random_game(2, 2, 2, seed=55)
    policy = uniform_policy(game)
    tables = solve_values(game, policy)
    kind = EstimatorKind(EstimatorTag.COMA, 1)
    _, oracle_var = trajectory_variance_oracle(kind, game, policy, tables, horizon=2)
    [(est, se)] = mc_of(
        [kind], game, policy, 40_000, 2, np.random.default_rng(7), tables=tables
    )
    assert abs(est - oracle_var) <= 4 * se + 1e-12


def test_mc_variance_is_deterministic():
    game = toy_game()
    policy = toy_policy()
    kind = EstimatorKind(EstimatorTag.OB_X, 0)
    a = mc_of([kind], game, policy, 5_000, 1, np.random.default_rng(3))
    b = mc_of([kind], game, policy, 5_000, 1, np.random.default_rng(3))
    assert a == b


def test_mc_variance_rejects_tiny_samples():
    game = toy_game()
    with pytest.raises(ValueError):
        mc_of(
            [EstimatorKind(EstimatorTag.OB_X, 0)],
            game,
            toy_policy(),
            1,
            1,
            np.random.default_rng(0),
        )


def test_kernels_reject_a_bad_agent_or_table():
    # the kernels take raw tables, so each checks its agent and their shapes
    game = random_game(2, 2, 2, seed=8)  # S = 2, A = 4
    policy = random_softmax_policy(game, np.random.default_rng(8))
    tables = solve_values(game, policy)
    coma = coma_tables_of(game, policy, tables)
    assert step_moments(game, policy, 1, coma) and bound_constants(game, policy, coma)
    bad_tables = ([], [coma[0].T], [coma[0][:, :2]], [coma[0].reshape(-1)])
    for agent, sigs in [(-1, coma), (2, coma), *((0, sigs) for sigs in bad_tables)]:
        with pytest.raises(ValueError):
            step_moments(game, policy, agent, sigs)
        with pytest.raises(ValueError):
            mc_variance(game, policy, agent, sigs, 10, 1, np.random.default_rng(0))
    for tables_given in (coma[:1], coma * 2, [coma[0], coma[1].T]):
        with pytest.raises(ValueError):
            bound_constants(game, policy, tables_given)


def _bit_generator(name, seed):
    """A generator on the named bit generator; the PCG64 one holds a buffered
    32-bit half draw, which drawing doubles keeps."""
    rng = np.random.Generator(getattr(np.random, name.split("+")[0])(seed))
    if name.endswith("+buffered"):
        rng.integers(2**32, dtype=np.uint32)
    return rng


MC_CASES = pytest.mark.parametrize(
    "shape, agent, n, horizon, chunk, bit_generator, advanceable",
    [
        # rollout's regime is set by (n_agents + 1) * S * m: 3 x 2 x 16 runs
        # windows of steps, 3 x 2 x 300 one step per block
        ((2, 2, 2, 3), 1, 50, 12, 16, "PCG64", True),
        ((2, 2, 2, 3), 0, 300, 30, 1 << 16, "PCG64", True),
        ((3, 3, 2, 5), 2, 90, 25, 40, "PCG64DXSM", True),
        # a 160-wide agent; the generator holds a buffered 32-bit half draw
        ((2, 40, 4, 1), 0, 1000, 3, 1 << 16, "PCG64+buffered", True),
        ((2, 3, 3, 1), 1, 60, 20, 1 << 16, "PCG64", True),
        # no advance, or one that counts blocks of draws: every kind in the
        # calling process, drawing from the generator itself
        ((2, 2, 2, 3), 1, 50, 12, 16, "MT19937", False),
        ((2, 3, 3, 1), 0, 40, 9, 1 << 16, "Philox", False),
        ((2, 3, 3, 1), 0, 60, 20, 1 << 16, "PCG64DXSM", True),
    ],
)


def _check_processes(monkeypatch, cpus, shape, agent, n, horizon, chunk,
                     bit_generator, advanceable):
    """mc_variance of all four kinds with ``cpus`` CPUs, in chunks of
    ``chunk``, against one call per kind: equal results and end states, and
    the calling process runs kinds 0, W, 2W, ..., one generator per pass."""
    n_agents, n_states, n_actions, seed = shape
    game = random_game(n_agents, n_states, n_actions, seed=seed)
    policy = random_softmax_policy(game, np.random.default_rng(seed + 1), 2.0)
    kinds = [EstimatorKind(tag, agent) for tag in EstimatorTag]
    tables = solve_values(game, policy)
    sigs = [signal_table(kind, game, policy, tables.q) for kind in kinds]
    monkeypatch.setattr(variance, "MC_CHUNK", chunk)
    one_by_one = _bit_generator(bit_generator, seed + 2)
    want = [
        mc_of([kind], game, policy, n, horizon, one_by_one, tables=tables)[0]
        for kind in kinds
    ]
    monkeypatch.setattr(variance, "_cpu_count", lambda: cpus)
    workers = min(len(kinds), cpus) if advanceable else 1
    if workers == 1:
        monkeypatch.setattr(os, "fork", None)  # a call would raise TypeError
    running, passes = [], []  # the kind each rollout pass of this process draws for
    kind_estimate = variance._kind_estimate

    def traced(game, pi_tables, agent, sig, *args):
        running.append(next(j for j, t in enumerate(sigs) if np.array_equal(t, sig)))
        return kind_estimate(game, pi_tables, agent, sig, *args)

    def counted(game, pi_tables, m, horizon, rng):
        assert isinstance(rng, np.random.Generator)
        passes.append(running[-1])
        return rollout(game, pi_tables, m, horizon, rng)

    monkeypatch.setattr(variance, "_kind_estimate", traced)
    monkeypatch.setattr(variance, "rollout", counted)
    together = _bit_generator(bit_generator, seed + 2)
    got = mc_of(kinds, game, policy, n, horizon, together, tables=tables)
    assert got == want
    assert repr(together.bit_generator.state) == repr(one_by_one.bit_generator.state)
    chunks = -(-n // chunk)
    assert passes == [j for j in range(0, len(kinds), workers) for _ in range(chunks)]
    assert_no_child_left()


@MC_CASES
def test_mc_variance_of_all_kinds_equals_one_call_per_kind(
    monkeypatch, shape, agent, n, horizon, chunk, bit_generator, advanceable
):
    _check_processes(monkeypatch, 1, shape, agent, n, horizon, chunk,
                     bit_generator, advanceable)


@pytest.mark.parametrize("cpus", [2, 3, 5])
@MC_CASES
def test_mc_variance_results_do_not_depend_on_the_process_count(
    monkeypatch, cpus, shape, agent, n, horizon, chunk, bit_generator, advanceable
):
    _check_processes(monkeypatch, cpus, shape, agent, n, horizon, chunk,
                     bit_generator, advanceable)


def test_mc_variance_never_forks_while_other_threads_run(monkeypatch):
    game = random_game(2, 3, 3, seed=1)
    policy = uniform_policy(game)
    kinds = [EstimatorKind(tag, 0) for tag in EstimatorTag]
    threadless = np.random.default_rng(4)
    want = mc_of(kinds, game, policy, 40, 9, threadless)
    monkeypatch.setattr(variance, "_cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", None)  # a call would raise TypeError
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        threaded = np.random.default_rng(4)
        got = mc_of(kinds, game, policy, 40, 9, threaded)
    finally:
        parked.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert got == want
    assert repr(threaded.bit_generator.state) == repr(threadless.bit_generator.state)


def _mc_with_hooks(monkeypatch, in_caller, in_child):
    """Four kinds over two processes, where each kind runs ``in_caller()``
    first in the calling process and ``in_child()`` first in the child."""
    caller = os.getpid()
    kind_estimate = variance._kind_estimate

    def hooked(*args):
        (in_caller if os.getpid() == caller else in_child)()
        return kind_estimate(*args)

    monkeypatch.setattr(variance, "_kind_estimate", hooked)
    monkeypatch.setattr(variance, "_cpu_count", lambda: 2)
    game = random_game(2, 3, 3, seed=1)
    kinds = [EstimatorKind(tag, 0) for tag in EstimatorTag]
    mc_of(kinds, game, uniform_policy(game), 20, 5, np.random.default_rng(0))


def test_a_child_exception_reraises_in_the_caller(monkeypatch):
    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError, match="^boom$"):
        _mc_with_hooks(monkeypatch, lambda: None, boom)
    assert_no_child_left()


def test_the_lowest_failing_kind_raises(monkeypatch):
    calls = []

    def kind_2():  # the caller runs kinds 0 and 2
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("kind 2")

    def kind_1():  # the child runs kinds 1 and 3
        raise ValueError("kind 1")

    with pytest.raises(ValueError, match="^kind 1$"):
        _mc_with_hooks(monkeypatch, kind_2, kind_1)
    assert len(calls) == 2
    assert_no_child_left()


@pytest.mark.parametrize(
    "in_child, status", [(lambda: os._exit(3), 3), (sys.exit, 1)], ids=["exit-3", "SystemExit"]
)
def test_a_child_that_writes_nothing_raises(monkeypatch, in_child, status):
    with pytest.raises(RuntimeError, match=f"^worker process exited with status {status} "):
        _mc_with_hooks(monkeypatch, lambda: None, in_child)
    assert_no_child_left()


def test_the_callers_exception_kills_every_child(monkeypatch):
    def interrupt():
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        # the child would work for a minute: the caller kills it
        _mc_with_hooks(monkeypatch, interrupt, lambda: time.sleep(60))
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("cpus, real_forks", [(2, 0), (3, 1)])
def test_a_failed_fork_leaks_no_pipe_and_no_child(monkeypatch, cpus, real_forks):
    fork, forks = os.fork, []

    def failing():
        forks.append(None)
        if len(forks) > real_forks:
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        return fork()

    game = random_game(2, 3, 3, seed=1)
    policy = uniform_policy(game)
    kinds = [EstimatorKind(tag, 0) for tag in EstimatorTag]
    tables = solve_values(game, policy)
    monkeypatch.setattr(os, "fork", failing)
    monkeypatch.setattr(variance, "_cpu_count", lambda: cpus)
    open_fds = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        forks.clear()
        with pytest.raises(BlockingIOError):
            mc_of(kinds, game, policy, 20, 5, np.random.default_rng(0), tables=tables)
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("n_tasks", [0, 1, 4, 7])
def test_in_processes_maps_the_tasks_in_order(monkeypatch, cpus, n_tasks):
    fork, forks = os.fork, []

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(variance, "_cpu_count", lambda: cpus)
    caller = os.getpid()
    got = variance._in_processes(lambda t: (t * t, os.getpid() == caller), range(n_tasks))
    workers = max(1, min(n_tasks, cpus))
    assert got == [(t * t, t % workers == 0) for t in range(n_tasks)]
    assert len(forks) == max(0, min(n_tasks, cpus) - 1)
    assert_no_child_left()


# ---------------------------------------------------------------------------
# reports


def test_variance_report_shape(corpus30):
    game, policy, _ = corpus30[9]
    report = build_variance_report(game, policy, agent=0, t_max=6)
    assert report.schema_version == 1
    assert set(report.per_t) == {tag.value for tag in ALL_TAGS}
    for tag, terms in report.per_t.items():
        for name in ("variance", "state", "others", "own"):
            assert len(terms[name]) == 7
    rows = report.to_csv_rows()
    assert rows[0][0] == "schema_version"
    # every (kind, t) contributes variance + three decomposition terms
    body = [r for r in rows if r[1] >= 0]
    assert len(body) == len(ALL_TAGS) * 7 * 4
    doc = report.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["agent"] == 0
    # decomposition terms in the csv sum to the variance rows
    by_key = {}
    for tag, t, term, value in body:
        by_key[(tag, t, term)] = value
    for tag in (t.value for t in ALL_TAGS):
        for t in range(7):
            total = by_key[(tag, t, "variance")]
            parts = (
                by_key[(tag, t, "state")]
                + by_key[(tag, t, "others")]
                + by_key[(tag, t, "own")]
            )
            assert abs(total - parts) < 1e-9


def test_variance_report_with_mc(corpus30):
    game, policy, _ = corpus30[10]
    report = build_variance_report(
        game,
        policy,
        agent=0,
        t_max=3,
        mc_trajectories=2_000,
        rng=np.random.default_rng(0),
    )
    assert set(report.mc) == {tag.value for tag in ALL_TAGS}
    horizon = min(default_horizon(game.gamma, game.beta), 200)
    assert all(entry["horizon"] == horizon for entry in report.mc.values())
    rows = report.to_csv_rows()
    labels = {r[2] for r in rows}
    assert "trajectory_draw_variance" in labels
    assert "trajectory_draw_se" in labels
    assert "discounted_per_step_sum" in labels
