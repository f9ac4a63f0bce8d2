"""Shared corpus: seeded (game, policy, tables) triples reused across files.

Sizes stay within n_agents <= 4, n_states <= 3, n_actions <= 3 so exhaustive
enumeration (all permutations, all joint actions) is always affordable.
"""
import os

import numpy as np
import pytest

from mapgvar import MarkovGame, random_game, random_softmax_policy, solve_values

CORPUS_SEED = 20_000


def one_step_game(action_spaces, payoff):
    """A one-state game with a self-loop and gamma 0 whose reward is
    ``payoff``, indexed by joint-action rank; beta is max |payoff| (1 if 0)."""
    payoff = np.asarray(payoff, dtype=float)
    beta = float(np.max(np.abs(payoff)))
    return MarkovGame(
        n_agents=len(action_spaces),
        states=("s0",),
        action_spaces=action_spaces,
        transition=np.ones((1, payoff.size, 1)),
        reward=payoff.reshape(1, -1),
        beta=beta if beta > 0 else 1.0,
        gamma=0.0,
        initial_dist=np.array([1.0]),
    )


def assert_no_child_left():
    """Every child process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch) -> list:
    """Patch ``os.fork`` to record, in the calling process, each child's pid."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def same_logits(policy, other):
    """Whether two joint policies hold equal logit tables, agent by agent."""
    return policy.n_agents == other.n_agents and all(
        np.array_equal(a.logits, b.logits) for a, b in zip(policy.agents, other.agents)
    )


def rollout_steps(blocks):
    """``rollout``'s blocks as one (states, actions, joint index, next
    states) tuple per step: actions is (n_agents, m), the rest (m,)."""
    return [
        (s[t], actions[:, t], a_idx[t], s_next[t])
        for s, actions, a_idx, s_next in blocks
        for t in range(len(s))
    ]


def corpus_pair(idx):
    """Deterministic (game, policy) pair #idx."""
    rng = np.random.default_rng(CORPUS_SEED + idx)
    n_agents = int(rng.integers(2, 5))
    n_states = int(rng.integers(1, 4))
    n_actions = int(rng.integers(2, 4))
    game = random_game(
        n_agents, n_states, n_actions, seed=CORPUS_SEED + 100_000 + idx
    )
    policy = random_softmax_policy(game, rng)
    return game, policy


@pytest.fixture(scope="session")
def corpus500():
    triples = []
    for idx in range(500):
        game, policy = corpus_pair(idx)
        triples.append((game, policy, solve_values(game, policy)))
    return triples


@pytest.fixture(scope="session")
def corpus200(corpus500):
    return corpus500[:200]


@pytest.fixture(scope="session")
def corpus100(corpus500):
    return corpus500[:100]


@pytest.fixture(scope="session")
def corpus30(corpus500):
    return corpus500[:30]
