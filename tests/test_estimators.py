import dataclasses
import itertools

import numpy as np
from conftest import rollout_steps
from oracles import (
    expected_contribution_oracle,
    expected_per_step_gradient,
    fd_policy_gradient,
    moments_of,
    per_step_gradient,
    trajectory_gradient,
    walked_policy_gradient,
)

from mapgvar import (
    EstimatorKind,
    EstimatorTag,
    coma_baseline,
    exact_policy_gradient,
    ob_surrogate_discrete,
    random_game,
    random_softmax_policy,
    rollout,
    signal_table,
    solve_values,
    uniform_policy,
)
from mapgvar.estimators import (
    add_block_signals,
    agent_axis_view,
    agent_prob_table,
    default_horizon,
    mean_step_gradient_by_state,
    others_prob_table,
    param_dim,
    subtract_block_policy,
    unview_agent_axis,
)

ALL_TAGS = (
    EstimatorTag.CENTRALIZED_VANILLA,
    EstimatorTag.DECENTRALIZED,
    EstimatorTag.COMA,
    EstimatorTag.OB_X,
)


# ---------------------------------------------------------------------------
# plumbing


def test_default_horizon_values():
    assert default_horizon(0.0, 1.0) == 1
    # gamma^H * beta/(1-gamma) <= 1e-9
    h = default_horizon(0.9, 1.0)
    assert 0.9**h * 10.0 <= 1e-9 < 0.9 ** (h - 1) * 10.0


def test_agent_axis_view_round_trip(corpus30):
    for game, policy, tables in corpus30[:10]:
        for i in range(game.n_agents):
            rows = agent_axis_view(game, tables.q, i)
            assert rows.shape == (
                game.n_states,
                game.n_joint_actions // game.action_counts[i],
                game.action_counts[i],
            )
            np.testing.assert_array_equal(
                unview_agent_axis(game, rows, i), tables.q
            )


def test_agent_axis_view_indexing(corpus30):
    # row m enumerates the other agents' actions in ascending-agent C order
    game, policy, tables = corpus30[2]
    i = 1
    rows = agent_axis_view(game, tables.q, i)
    others = [j for j in range(game.n_agents) if j != i]
    for s in range(game.n_states):
        for m, combo_others in enumerate(
            itertools.product(*(range(game.action_counts[j]) for j in others))
        ):
            for a_i in range(game.action_counts[i]):
                joint = [0] * game.n_agents
                for j, a in zip(others, combo_others):
                    joint[j] = a
                joint[i] = a_i
                expect = tables.q[s, game.joint_action_index(tuple(joint))]
                assert rows[s, m, a_i] == expect


def test_prob_tables_normalize(corpus30):
    for game, policy, _ in corpus30[:10]:
        for i in range(game.n_agents):
            np.testing.assert_allclose(
                agent_prob_table(game, policy, i).sum(axis=1), 1.0, atol=1e-12
            )
            np.testing.assert_allclose(
                others_prob_table(game, policy, i).sum(axis=1), 1.0, atol=1e-12
            )


# ---------------------------------------------------------------------------
# signal tables


def test_signal_rows_by_hand(corpus30):
    game, policy, tables = corpus30[3]
    i = 0
    kinds = {tag: EstimatorKind(tag, i) for tag in ALL_TAGS}
    pi_rows = agent_prob_table(game, policy, i)
    for s in range(game.n_states):
        rows = agent_axis_view(game, tables.q, i)[s]  # (M, k)
        vanilla = agent_axis_view(
            game, signal_table(kinds[EstimatorTag.CENTRALIZED_VANILLA], game, policy, tables.q), i
        )[s]
        coma = agent_axis_view(
            game, signal_table(kinds[EstimatorTag.COMA], game, policy, tables.q), i
        )[s]
        obx = agent_axis_view(
            game, signal_table(kinds[EstimatorTag.OB_X], game, policy, tables.q), i
        )[s]
        dec = agent_axis_view(
            game, signal_table(kinds[EstimatorTag.DECENTRALIZED], game, policy, tables.q), i
        )[s]
        for m in range(rows.shape[0]):
            np.testing.assert_allclose(vanilla[m], rows[m], atol=1e-12)
            np.testing.assert_allclose(
                coma[m], rows[m] - coma_baseline(rows[m], pi_rows[s]), atol=1e-9
            )
            np.testing.assert_allclose(
                obx[m], rows[m] - ob_surrogate_discrete(rows[m], pi_rows[s]), atol=1e-9
            )
        # decentralized rows are constant across the others' actions
        marginal = np.einsum("mk,m->k", rows, others_prob_table(game, policy, i)[s])
        for m in range(rows.shape[0]):
            np.testing.assert_allclose(dec[m], marginal, atol=1e-9)


def test_coma_signal_rows_have_zero_policy_mean(corpus30):
    for game, policy, tables in corpus30[:10]:
        for i in range(game.n_agents):
            kind = EstimatorKind(EstimatorTag.COMA, i)
            rows = agent_axis_view(game, signal_table(kind, game, policy, tables.q), i)
            pi_rows = agent_prob_table(game, policy, i)
            means = np.einsum("smk,sk->sm", rows, pi_rows)
            assert np.abs(means).max() < 1e-9


# ---------------------------------------------------------------------------
# per-step contributions


def test_per_step_gradient_by_hand(corpus30):
    # one sample's block sums with the signal_table entry, finished, the
    # reference per-step contribution and signal * (e_a - pi) written out agree
    game, policy, tables = corpus30[4]
    i = 0
    kind = EstimatorKind(EstimatorTag.CENTRALIZED_VANILLA, i)
    s = game.n_states - 1
    joint = tuple(0 for _ in range(game.n_agents))
    k = game.action_counts[i]
    sig = signal_table(kind, game, policy, tables.q)[s, game.joint_action_index(joint)]
    vec, totals = np.zeros(param_dim(game, i)), np.zeros(game.n_states)
    add_block_signals(vec, totals, np.array([s]), np.array([joint[i]]), np.array([sig]))
    subtract_block_policy(vec.reshape(-1, k), totals, agent_prob_table(game, policy, i))
    np.testing.assert_array_equal(
        vec, per_step_gradient(kind, game, policy, tables, s, joint)
    )
    # zero outside the state block
    outside = np.delete(vec.reshape(game.n_states, k), s, axis=0)
    assert np.all(outside == 0.0)
    # inside: signal * (e_a - pi), the signal being the raw q entry
    assert sig == tables.q[s, game.joint_action_index(joint)]
    expect = -policy.probs(i, s) * sig
    expect[joint[i]] += sig
    np.testing.assert_allclose(vec[s * k : (s + 1) * k], expect, atol=1e-12)


def test_trajectory_gradient_is_discounted_sum(corpus30):
    # rollout + add_block_signals + subtract_block_policy, the accumulation
    # mc_variance and train run, equal the discounted sum of per-step
    # contributions along each sampled trajectory, and stopping at a horizon
    # drops the tail
    game, policy, tables = corpus30[7]
    i = 0
    kind = EstimatorKind(EstimatorTag.OB_X, i)
    m, horizon, k = 4, 5, game.action_counts[i]
    dim = param_dim(game, i)
    pi_tables = [agent_prob_table(game, policy, j) for j in range(game.n_agents)]
    sig = signal_table(kind, game, policy, tables.q)
    flat, totals = np.zeros(m * dim), np.zeros((m, game.n_states))
    blocks = rollout(game, pi_tables, m, horizon, np.random.default_rng(8))
    steps = rollout_steps(blocks)
    scale = 1.0
    for s, actions, a_idx, _ in steps:
        add_block_signals(flat, totals.reshape(-1), np.arange(m) * game.n_states + s,
                          actions[i], scale * sig[s, a_idx])
        scale *= game.gamma
    subtract_block_policy(flat.reshape(m, -1, k), totals, pi_tables[i])
    for b, total in enumerate(flat.reshape(m, dim)):
        traj = [(s[b], tuple(actions[:, b])) for s, actions, _, _ in steps]
        np.testing.assert_allclose(
            total, trajectory_gradient(kind, game, policy, tables, traj), atol=1e-12
        )
        expect = np.zeros(dim)
        for t, (s, joint) in enumerate(traj):
            expect += game.gamma**t * per_step_gradient(
                kind, game, policy, tables, s, joint
            )
        np.testing.assert_allclose(total, expect, atol=1e-12)
        short = trajectory_gradient(kind, game, policy, tables, traj, horizon=2)
        expect2 = sum(
            game.gamma**t * per_step_gradient(kind, game, policy, tables, s, joint)
            for t, (s, joint) in enumerate(traj[:2])
        )
        np.testing.assert_allclose(short, expect2, atol=1e-12)


# ---------------------------------------------------------------------------
# unbiasedness and the exact gradient


def test_all_kinds_share_the_expected_contribution(corpus30):
    # every kind's enumerated E[contribution | s] is the kind-free block that
    # exact_policy_gradient sums, and step_moments' mean_sq is its squared norm
    for game, policy, tables in corpus30[:10]:
        for i in range(game.n_agents):
            by_state = mean_step_gradient_by_state(game, policy, tables, i)
            k = game.action_counts[i]
            for tag in ALL_TAGS:
                kind = EstimatorKind(tag, i)
                mean_sq = moments_of(kind, game, policy, tables).mean_sq
                for s in range(game.n_states):
                    vec = expected_per_step_gradient(kind, game, policy, tables, s)
                    oracle = expected_contribution_oracle(
                        kind, game, policy, tables, s
                    )
                    np.testing.assert_allclose(vec, oracle, atol=1e-9)
                    np.testing.assert_allclose(
                        vec[s * k : (s + 1) * k], by_state[s], atol=1e-9
                    )
                    assert abs(float(vec @ vec) - mean_sq[s]) < 1e-9


def test_mean_step_gradient_matches_enumeration(corpus30):
    kind_tag = EstimatorTag.CENTRALIZED_VANILLA
    for game, policy, tables in corpus30[:10]:
        for i in range(game.n_agents):
            by_state = mean_step_gradient_by_state(game, policy, tables, i)
            k = game.action_counts[i]
            for s in range(game.n_states):
                oracle = expected_contribution_oracle(
                    EstimatorKind(kind_tag, i), game, policy, tables, s
                )
                np.testing.assert_allclose(
                    by_state[s], oracle[s * k : (s + 1) * k], atol=1e-9
                )


def test_exact_gradient_matches_walked_route(corpus30):
    # the occupancy solve against the walk truncated at default_horizon,
    # whose tail is below 1e-9 of the total; the corpus has at most 3 states
    triples = list(corpus30[:10])
    for seed in range(5):
        game = random_game(3, 6, 3, seed=seed)
        policy = random_softmax_policy(game, np.random.default_rng(seed))
        triples.append((game, policy, solve_values(game, policy)))
    worst = 0.0
    for game, policy, tables in triples:
        for i in range(game.n_agents):
            grad = exact_policy_gradient(game, policy, tables, i)
            walked = walked_policy_gradient(game, policy, i)
            scale = max(float(np.abs(walked).max()), 1e-300)
            np.testing.assert_allclose(grad, walked, rtol=0, atol=1e-9 * scale)
            worst = max(worst, float(np.abs(grad - walked).max()) / scale)
    assert worst < 1e-9, worst


def test_exact_gradient_matches_finite_differences(corpus30):
    worst = 0.0
    for game, policy, tables in corpus30[:5]:
        for i in range(game.n_agents):
            grad = exact_policy_gradient(game, policy, tables, i)
            fd = fd_policy_gradient(game, policy, i)
            scale = max(1.0, float(np.abs(fd).max()))
            worst = max(worst, float(np.abs(grad - fd).max()) / scale)
    assert worst < 1e-5, worst


def test_exact_gradient_near_gamma_one():
    # no horizon bounds the occupancy solve: at gamma = 1 - 1e-6 the walk
    # would need 34 538 760 rows. J is about 1e6 here and its solve rounds
    # at about 1e-10 of it, so the differences take a step of 1e-3, where
    # they are within 1e-7 of the gradient, not 1e-5, where that rounding
    # leaves them 8e-6 off
    game = dataclasses.replace(random_game(2, 2, 2, seed=1), gamma=1.0 - 1e-6)
    policy = uniform_policy(game)
    tables = solve_values(game, policy)
    for i in range(game.n_agents):
        grad = exact_policy_gradient(game, policy, tables, i)
        fd = fd_policy_gradient(game, policy, i, h=1e-3)
        assert np.all(np.isfinite(grad))
        assert np.abs(grad - fd).max() <= 1e-5 * np.abs(fd).max()
