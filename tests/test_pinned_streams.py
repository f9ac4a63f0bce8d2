"""Pinned draw streams: exact outputs of rollout, mc_variance, train and
train_gaussian, plus the bytes of one verify report.

The constants were recorded from the per-step compare-count sampler, the
per-row Gaussian OB surrogate and the per-transition TD loop that the
current kernels replaced; the discrete gradients' were recorded again when
the block sums replaced the per-step fancy-index gradient updates.
Every comparison is ==, so a change to the draw order, the sampler's tie
rule or the order in which gradient terms are summed fails here. Update the
constants only with a change that is meant to move numbers, and record why.
"""
import hashlib

import numpy as np
import pytest
from conftest import rollout_steps
from oracles import mc_of

from mapgvar import (
    BaselineKind,
    BaselineTag,
    ContinuousOneStepTask,
    CriticConfig,
    EstimatorKind,
    EstimatorTag,
    PPOConfig,
    TrainConfig,
    random_game,
    random_softmax_policy,
    rollout,
    train,
    train_gaussian,
)
import mapgvar.variance as variance

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
# chunks of 16, the four kinds in EstimatorTag order on one generator; ob_x
# reads the cancellation-free x-measure, which moved its SE's last bits, and
# summing each block's signals before subtracting pi once moved every kind's
MC = {
    "decentralized": (2.1860631317354184, 0.21086672184744215),
    "centralized_vanilla": (3.175471457873495, 0.4947713354792875),
    "coma": (1.9508461450274903, 0.2756168351389173),
    "ob_x": (1.9856710510081814, 0.3339565093371856),
}
MC_STATE = 163543252750250100078913129045173179878

# TD critic, PPO, OB surrogate baseline: batch 4, horizon 40, 3 iterations;
# the cancellation-free x-measure moved three logits in their last bit, and
# the block sums, with PPO's running-product discounts, moved the gradient
# statistics and the logits in theirs
TRAIN = {
    "returns": (-1.471097900775881, -1.471097900775881, -1.3876655041748382),
    "grad_variance": (0.0, 1.7036105863771909, 0.28090069971759957),
    "grad_norm": (0.0, 3.016758803848157, 2.7373396723310846),
    "logits": [
        [
            [0.0011825086632316361, -0.0011825086632316357],
            [-0.0016114163940693959, 0.0016114163940693957],
            [0.007761075999839837, -0.007761075999839837],
        ],
        [
            [0.006228893139140057, -0.006228893139140058],
            [-0.036725986957244154, 0.03672598695724416],
            [0.014148875216455081, -0.01414887521645508],
        ],
    ],
    "state": 334702587045061038831436622225422782011,
}


# Gaussian actors on a clipped quadratic task, one dict per baseline; the OB
# surrogate's counterfactual rows are clipped flat about a quarter of the time
GAUSSIAN = {
    "none": {
        "returns": (
            -2.2126632298160263,
            -2.2722022731527107,
            -2.172319342771129,
            -1.9904469850763835,
        ),
        "grad_variance": (
            127.77133681753526,
            246.42372574427878,
            192.63717019437294,
            102.03744105004805,
        ),
        "grad_norm": (
            5.039636769200212,
            7.048957241266904,
            4.935218497732492,
            2.9856897846876906,
        ),
        "entropies": (
            (2.391589963780926, 1.195794981890463),
            (2.190287946199347, 1.133398008668583),
            (1.3517180032776208, 1.2158865761862039),
            (1.3632842011773918, 1.26678581629567),
        ),
        "params": [
            [
                [0.4363844719824409, 0.14370908353038048],
                [0.3821616304893509, 0.7193533822613816],
            ],
            [[0.23308161597919064], [0.8782617105443141]],
        ],
        "state": 328035146939809093048252230540099681952,
    },
    "coma": {
        "returns": (
            -2.2126632298160263,
            -2.2745134531538036,
            -2.186253590472875,
            -2.005468778687124,
        ),
        "grad_variance": (
            14.94133962750914,
            15.638454906661394,
            10.987034831807188,
            9.534845717788665,
        ),
        "grad_norm": (
            2.3580742221369997,
            2.116813569050955,
            2.026862281688103,
            1.6975263687874538,
        ),
        "entropies": (
            (2.391589963780926, 1.195794981890463),
            (2.2910393586882423, 1.2475099153325409),
            (2.116933172366979, 1.2896981133684406),
            (1.9664876031282983, 1.2963873375158),
        ),
        "params": [
            [
                [0.07685525913229635, -0.003856876768688287],
                [0.5701399792152728, 0.7055426233904961],
            ],
            [[0.21665160406062084], [0.8989236170009259]],
        ],
        "state": 328035146939809093048252230540099681952,
    },
    "ob_surrogate": {
        "returns": (
            -2.2126632298160263,
            -2.073280928077543,
            -2.335577829945658,
            -2.8021955095732234,
        ),
        "grad_variance": (
            11.366852625414843,
            2.4817408440822204,
            0.9367579903403396,
            2.4919896303269216,
        ),
        "grad_norm": (
            1.278501453910128,
            1.0052622815546497,
            0.40567343214867957,
            0.7309080553524911,
        ),
        "entropies": (
            (2.391589963780926, 1.195794981890463),
            (2.360636526288959, 1.1940458763803752),
            (2.303743544282413, 1.1569665827947384),
            (2.2668332236506954, 1.1552145260185305),
        ),
        "params": [
            [
                [0.013359139060335801, -0.030244368331280313],
                [0.722900551511018, 0.7506449142656207],
            ],
            [[0.07946959874742354], [0.7769305119400353]],
        ],
        "state": 307565987804725757108482449745358173640,
    },
}

# TD critic at lr 0.1 with the COMA baseline on a 16-cell game (4 states, 2 x 2
# joint actions): batch 8, horizon 400, so a pass visits each cell many
# times; the block sums moved the gradient statistics, the third return and
# the logits in their last bits
TD_TRAIN = {
    "returns": (1.5282184735228557, 1.5282184735228557, 2.236389313624766),
    "grad_variance": (0.0, 1.1122902905670269, 0.7935655322390984),
    "grad_norm": (0.0, 3.0025247695971786, 2.210276079346627),
    "logits": [
        [
            [-0.1395017145935354, 0.1395017145935354],
            [0.1374931506869567, -0.13749315068695667],
            [-0.04106037808521595, 0.04106037808521595],
            [-0.030663104746875045, 0.030663104746875045],
        ],
        [
            [-0.2938587143199319, 0.2938587143199318],
            [-0.04334702831733743, 0.04334702831733743],
            [-0.019183007253355693, 0.019183007253355675],
            [0.06832889336257726, -0.06832889336257728],
        ],
    ],
    "state": 240865411370187109693785584832010105184,
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
        for s, actions, a_idx, s_next in rollout_steps(
            rollout(game, _pi_tables(policy), m, horizon, rng)
        )
    ]
    assert (steps, _pcg_state(rng)) == ROLLOUTS[case]


def test_long_rollout_digest_is_pinned():
    game = random_game(3, 5, 4, seed=21)
    policy = random_softmax_policy(game, np.random.default_rng(22), scale=3.0)
    rng = np.random.default_rng(23)
    digest = hashlib.sha256()
    blocks = rollout(game, _pi_tables(policy), 200, 40, rng)
    for s, actions, a_idx, s_next in rollout_steps(blocks):
        for x in (s, *actions, a_idx, s_next):
            digest.update(np.asarray(x, dtype="<i8").tobytes())
    assert (digest.hexdigest(), _pcg_state(rng)) == LONG_ROLLOUT


def test_mc_variance_is_pinned(monkeypatch):
    monkeypatch.setattr(variance, "MC_CHUNK", 16)
    game = random_game(2, 2, 2, seed=3)
    policy = random_softmax_policy(game, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    got = {
        tag.value: mc_of([EstimatorKind(tag, 1)], game, policy, 50, 12, rng)[0]
        for tag in EstimatorTag
    }
    assert got == MC
    assert _pcg_state(rng) == MC_STATE
    # the four kinds in one call
    rng = np.random.default_rng(5)
    kinds = [EstimatorKind(tag, 1) for tag in EstimatorTag]
    got = mc_of(kinds, game, policy, 50, 12, rng)
    assert dict(zip([tag.value for tag in EstimatorTag], got)) == MC
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


def test_td_critic_train_with_many_visits_per_cell_is_pinned():
    game = random_game(2, 4, 2, seed=41)
    config = TrainConfig(
        baseline=BaselineKind(BaselineTag.COMA),
        critic=CriticConfig(mode="td", lr=0.1),
        batch_size=8,
        horizon=400,
        iterations=3,
        seed=19,
    )
    result = train(game, None, config)
    got = {
        "returns": result.history.returns,
        "grad_variance": result.history.grad_variance,
        "grad_norm": result.history.grad_norm,
        "logits": [agent.logits.tolist() for agent in result.policy.agents],
        "state": result.final_rng_state["state"]["state"],
    }
    assert got == TD_TRAIN


_TARGET = np.array([0.4, -0.3, 1.2])


def _clipped_quadratic(x):
    return -np.minimum(((x - _TARGET) ** 2).sum(axis=1) + 0.5 * x[:, 0] * x[:, 2], 3.0)


@pytest.mark.parametrize("baseline", sorted(GAUSSIAN))
def test_train_gaussian_is_pinned(baseline, monkeypatch):
    # train_gaussian keeps its generator to itself; catch it as it is made
    made = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    task = ContinuousOneStepTask(payoff=_clipped_quadratic, dims=(2, 1), beta=3.0)
    config = TrainConfig(
        baseline=BaselineKind(BaselineTag(baseline)),
        actor_lr=0.05,
        batch_size=6,
        iterations=4,
        ob_n_samples=5,
        seed=17,
    )
    init = [(np.zeros(2), np.full(2, 0.8)), (np.zeros(1), np.full(1, 0.8))]
    history, params = train_gaussian(task, init, config)
    got = {
        "returns": history.returns,
        "grad_variance": history.grad_variance,
        "grad_norm": history.grad_norm,
        "entropies": history.entropies,
        "params": [[m.tolist(), s.tolist()] for m, s in params],
        "state": made[-1].bit_generator.state["state"]["state"],
    }
    assert got == GAUSSIAN[baseline]


# sha256 of verify_report.json from `verify --games 30 --agents 3 --format json`
# (seed 0), recorded before the marginal lattice, the shared gap path and the
# cached softmax table replaced recomputing each of them per call, and again
# when the cancellation-free score geometry and the centered moments moved
# its statistics in their last bits, and when the centered local_variance
# moved its two optimal-baseline statistics in theirs
VERIFY_30_3_SHA256 = "32885d343e9efcfc19c9fad6f3dd2b5de93fc62f137f683131420b364ab08207"


def test_verify_report_is_pinned(tmp_path):
    from mapgvar.cli import main

    argv = ["verify", "--games", "30", "--agents", "3", "--format", "json"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "verify_report.json").read_bytes()).hexdigest()
    assert digest == VERIFY_30_3_SHA256
