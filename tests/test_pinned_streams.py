"""Pinned draw streams: exact outputs of rollout, mc_variance and train.

The constants were recorded from the per-step compare-count sampler and the
per-step fancy-index gradient updates that the current kernels replaced.
Every comparison is ==, so a change to the draw order, the sampler's tie
rule or the order in which gradient terms are summed fails here. Update the
constants only with a change that is meant to move numbers, and record why.
"""
import hashlib

import numpy as np
import pytest

from mapgvar import (
    BaselineKind,
    BaselineTag,
    CriticConfig,
    EstimatorKind,
    EstimatorTag,
    PPOConfig,
    TrainConfig,
    mc_variance,
    random_game,
    random_softmax_policy,
    rollout,
    train,
)

# (n_agents, n_states, n_actions, game seed, policy seed, m, horizon, draw seed)
# -> ([(states, actions per agent, joint index, next states) per step],
#     final PCG64 state)
ROLLOUTS = {
    (2, 3, 3, 5, 7, 4, 3, 11): (
        [
            ([2, 2, 2, 0], [[0, 2, 0, 0], [2, 0, 0, 1]], [2, 6, 0, 1], [2, 0, 0, 2]),
            ([2, 0, 0, 2], [[1, 1, 2, 1], [2, 1, 1, 0]], [5, 4, 7, 3], [0, 1, 2, 1]),
            ([0, 1, 2, 1], [[2, 0, 1, 0], [0, 2, 0, 0]], [6, 2, 3, 0], [2, 0, 1, 1]),
        ],
        174468198191964604968833687417529259638,
    ),
    (3, 2, 2, 6, 8, 3, 3, 12): (
        [
            ([1, 1, 1], [[0, 1, 0], [1, 0, 1], [1, 0, 0]], [3, 4, 2], [0, 0, 0]),
            ([0, 0, 0], [[1, 1, 1], [1, 1, 1], [1, 1, 1]], [7, 7, 7], [0, 1, 0]),
            ([0, 1, 0], [[1, 1, 0], [1, 1, 1], [0, 0, 1]], [6, 6, 3], [0, 1, 0]),
        ],
        77713697711059217807956503227700642174,
    ),
    (1, 4, 1, 7, 9, 3, 2, 13): (
        [
            ([1, 1, 1], [[0, 0, 0]], [0, 0, 0], [3, 0, 3]),
            ([3, 0, 3], [[0, 0, 0]], [0, 0, 0], [0, 1, 2]),
        ],
        65390463905078133914599646591707312222,
    ),
    (2, 1, 3, 8, 10, 3, 2, 14): (
        [
            ([0, 0, 0], [[2, 2, 1], [2, 2, 1]], [8, 8, 4], [0, 0, 0]),
            ([0, 0, 0], [[2, 2, 1], [1, 0, 2]], [7, 6, 5], [0, 0, 0]),
        ],
        206250103199046048678561635582849913531,
    ),
}

# 200 trajectories x 40 steps of a 3-agent, 5-state, 4-action game with a
# peaked policy: sha256 of every yielded array as little-endian int64
LONG_ROLLOUT = (
    "15ba839882dd0e48f9901a5a03750a97aadb5766630cdffb767be650091e3385",
    135837499086618512340414344949487758904,
)

# agent 1 of a 2-agent, 2-state, 2-action game; 50 trajectories of 12 steps in
# chunks of 16, the four kinds in EstimatorTag order on one generator
MC = {
    "decentralized": (2.1860631317354198, 0.21086672184744282),
    "centralized_vanilla": (3.1754714578734937, 0.49477133547928837),
    "coma": (1.9508461450274903, 0.27561683513891994),
    "ob_x": (1.9856710510081803, 0.3339565093371803),
}
MC_STATE = 163543252750250100078913129045173179878

# TD critic, PPO, OB surrogate baseline: batch 4, horizon 40, 3 iterations
TRAIN = {
    "returns": (-1.471097900775881, -1.471097900775881, -1.3876655041748382),
    "grad_variance": (0.0, 1.7036105863771915, 0.28090069971759984),
    "grad_norm": (0.0, 3.0167588038481576, 2.7373396723310846),
    "logits": [
        [
            [0.001182508663231635, -0.0011825086632316353],
            [-0.0016114163940693963, 0.0016114163940693963],
            [0.007761075999839837, -0.007761075999839837],
        ],
        [
            [0.006228893139140059, -0.006228893139140058],
            [-0.03672598695724416, 0.03672598695724415],
            [0.01414887521645508, -0.01414887521645508],
        ],
    ],
    "state": 334702587045061038831436622225422782011,
}


def _pcg_state(rng):
    return rng.bit_generator.state["state"]["state"]


def _pi_tables(policy):
    return [agent.all_probs() for agent in policy.agents]


@pytest.mark.parametrize("case", sorted(ROLLOUTS))
def test_rollout_stream_is_pinned(case):
    n, n_states, k, game_seed, policy_seed, m, horizon, draw_seed = case
    game = random_game(n, n_states, k, seed=game_seed)
    policy = random_softmax_policy(game, np.random.default_rng(policy_seed))
    rng = np.random.default_rng(draw_seed)
    steps = [
        (s.tolist(), [a.tolist() for a in actions], a_idx.tolist(), s_next.tolist())
        for s, actions, a_idx, s_next in rollout(
            game, _pi_tables(policy), m, horizon, rng
        )
    ]
    assert (steps, _pcg_state(rng)) == ROLLOUTS[case]


def test_long_rollout_digest_is_pinned():
    game = random_game(3, 5, 4, seed=21)
    policy = random_softmax_policy(game, np.random.default_rng(22), scale=3.0)
    rng = np.random.default_rng(23)
    digest = hashlib.sha256()
    for s, actions, a_idx, s_next in rollout(game, _pi_tables(policy), 200, 40, rng):
        for x in (s, *actions, a_idx, s_next):
            digest.update(np.asarray(x, dtype="<i8").tobytes())
    assert (digest.hexdigest(), _pcg_state(rng)) == LONG_ROLLOUT


def test_mc_variance_is_pinned():
    game = random_game(2, 2, 2, seed=3)
    policy = random_softmax_policy(game, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    got = {
        tag.value: mc_variance(
            EstimatorKind(tag, 1), game, policy, 50, 12, rng, chunk_size=16
        )
        for tag in EstimatorTag
    }
    assert got == MC
    assert _pcg_state(rng) == MC_STATE


def test_td_ppo_train_history_is_pinned():
    game = random_game(2, 3, 2, seed=31)
    config = TrainConfig(
        baseline=BaselineKind(BaselineTag.OB_SURROGATE),
        critic=CriticConfig(mode="td"),
        ppo=PPOConfig(),
        batch_size=4,
        horizon=40,
        iterations=3,
        seed=9,
    )
    result = train(game, None, config)
    got = {
        "returns": result.history.returns,
        "grad_variance": result.history.grad_variance,
        "grad_norm": result.history.grad_norm,
        "logits": [agent.logits.tolist() for agent in result.policy.agents],
        "state": result.final_rng_state["state"]["state"],
    }
    assert got == TRAIN
