"""Estimator signals, the trajectory sampler and the exact policy gradient.

Every estimator multiplies a scalar signal by the acting agent's own score
vector at the visited state:

  centralized_vanilla   signal = Q(s, joint action)
  decentralized         signal = Q^i(s, own action) — the marginal critic,
                        other agents integrated out
  coma                  signal = local advantage A^i = Q - E_{a^i}[Q]
  ob_x                  signal = X^i = Q - b*, the optimal-baseline shift

All four share the same expectation; they differ only in variance. A tabular
softmax actor for agent i has one parameter per (state, action), so each
contribution vector has length n_states * |A^i| and is supported on the
visited state's block only.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .games import MarkovGame
from .policies import JointPolicy, _product_table, check_policy_fits, x_measure_softmax
from .values import ValueTables, _solve_discounted, policy_transition

IDENTITY_TOL = 1e-9  # identity/bound slack; relative tail a horizon leaves out


class EstimatorTag(str, Enum):
    DECENTRALIZED = "decentralized"
    CENTRALIZED_VANILLA = "centralized_vanilla"
    COMA = "coma"
    OB_X = "ob_x"


@dataclass(frozen=True)
class EstimatorKind:
    tag: EstimatorTag
    agent: int

    def __post_init__(self):
        object.__setattr__(self, "tag", EstimatorTag(self.tag))
        if self.agent < 0:
            raise ValueError("agent index must be non-negative")


def param_dim(game: MarkovGame, agent: int) -> int:
    return game.n_states * game.action_counts[agent]


def default_horizon(gamma: float, beta: float) -> int:
    """Steps after which the discounted tail is below IDENTITY_TOL * beta-scale."""
    if gamma == 0.0:
        return 1
    tail = math.log(IDENTITY_TOL * (1.0 - gamma) / beta)
    return max(1, math.ceil(tail / math.log(gamma)))


def _check_agent(game: MarkovGame, agent: int) -> None:
    if not 0 <= agent < game.n_agents:
        raise ValueError(f"agent index {agent} out of range [0, {game.n_agents})")


def agent_axis_view(game: MarkovGame, table: np.ndarray, agent: int) -> np.ndarray:
    """Reshape an (S, A) table to (S, A_others, k_agent): agent's axis last.

    The other agents keep ascending order, so the middle axis is their
    C-order joint rank.
    """
    t = table.reshape((game.n_states, *game.action_counts))
    t = np.moveaxis(t, 1 + agent, -1)
    k = game.action_counts[agent]
    return t.reshape(game.n_states, -1, k)


def unview_agent_axis(game: MarkovGame, rows: np.ndarray, agent: int) -> np.ndarray:
    """Inverse of agent_axis_view, back to the flat (S, A) layout."""
    counts = game.action_counts
    others = tuple(c for j, c in enumerate(counts) if j != agent)
    t = rows.reshape((game.n_states, *others, counts[agent]))
    t = np.moveaxis(t, -1, 1 + agent)
    return t.reshape(game.n_states, -1)


def others_prob_table(game: MarkovGame, policy: JointPolicy, agent: int) -> np.ndarray:
    """(S, A_others) product distribution of the agents other than ``agent``."""
    others = [policy.agents[j].all_probs() for j in range(game.n_agents) if j != agent]
    return _product_table(game.n_states, others)


def agent_prob_table(game: MarkovGame, policy: JointPolicy, agent: int) -> np.ndarray:
    """(S, k) table of one agent's action probabilities."""
    return policy.agents[agent].all_probs()


def marginal_q_rows(
    game: MarkovGame, policy: JointPolicy, q: np.ndarray, agent: int
) -> np.ndarray:
    """Q^i(s, a^i) table of shape (S, k_i) from an (S, A) action-value
    table ``q``: others integrated out."""
    rows = agent_axis_view(game, q, agent)
    p_others = others_prob_table(game, policy, agent)
    return np.einsum("smk,sm->sk", rows, p_others)


def signal_table(
    kind: EstimatorKind,
    game: MarkovGame,
    policy: JointPolicy,
    q: np.ndarray,
) -> np.ndarray:
    """Exact per-(state, joint action) scalar signal for the estimator kind.

    ``q`` is an (S, A) action-value table: the solved ``ValueTables.q`` or
    a learned critic's estimate.
    """
    _check_agent(game, kind.agent)
    i = kind.agent
    if kind.tag is EstimatorTag.CENTRALIZED_VANILLA:
        return q.copy()
    rows = agent_axis_view(game, q, i)  # (S, M, k)
    if kind.tag is EstimatorTag.DECENTRALIZED:
        qi = marginal_q_rows(game, policy, q, i)
        rows = np.broadcast_to(qi[:, None, :], rows.shape)
        return unview_agent_axis(game, np.ascontiguousarray(rows), i)
    # COMA and OB_X subtract the Q-row's mean under the policy or the x-measure
    weights = agent_prob_table(game, policy, i)  # (S, k)
    if kind.tag is EstimatorTag.OB_X:
        weights = x_measure_softmax(weights)
    b = np.einsum("smk,sk->sm", rows, weights)
    return unview_agent_axis(game, rows - b[:, :, None], i)


def cdf_table(probs: np.ndarray, width: int = 1) -> np.ndarray:
    """Per row of nonnegative ``probs`` (last axis, width w): its cumulative
    sums but the last, padded with +inf to 2**d - 1 entries, 2**d >= w and
    2**d >= ``width``, so tables of different widths stack."""
    w = probs.shape[-1]
    span = (max(w, width) - 1).bit_length()
    table = np.full((probs.size // w, (1 << span) - 1), np.inf)
    table[:, : w - 1] = np.cumsum(probs, axis=-1).reshape(-1, w)[:, :-1]
    return table


def inverse_cdf(table: np.ndarray, base: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw by each uniform ``u`` from its row of a ``cdf_table``: the count of
    entries below u by branchless binary search, which equals
    (u[:, None] > cdf[rows]).sum(axis=1).clip(0, w - 1) on the full rows.
    ``base`` holds one row's flat offset per draw, rows * table.shape[1], and
    ``u`` broadcasts to its shape."""
    flat = table.reshape(-1)
    idx = base.copy()
    step = (table.shape[1] + 1) >> 1
    while step:
        idx += step * (flat[step - 1 :][idx] < u)
        step >>= 1
    return idx - base


# rollout's cost rule. A window draws every step's actions and successor for
# every state, (n_agents + 1) * S * m search elements per step, where the
# per-step path searches (n_agents + 1) * m but pays a dozen numpy calls per
# step. The two cost the same at about 1000-1500 elements (measured at S 2-8,
# one core), so windows run up to this many and the per-step path above it.
WINDOW_MAX_ELEMENTS = 1024
# Steps per window. It bounds each of a window's temporaries at
# WINDOW_CAP * WINDOW_MAX_ELEMENTS int64 entries (1 MiB).
WINDOW_CAP = 128
# Steps times trajectories per block of the per-step path: w = this // m
# steps, at least 1 and at most WINDOW_CAP, so a consumer's per-block work
# (mc_variance's signal gather and its sums) runs once per w steps. One kind's
# mc_variance pass over the bench's eight report-mc shapes (m = 1000, horizon
# 200, one core of a 2-CPU VM, two runs of 9 interleaved repeats) took
# 1.00-1.02, 0.99-1.00 and 1.05-1.09 times its time at 8192 at 4096, 16384 and
# 32768. Each (w, m) plane of a block holds at most max(this, m) entries.
STEP_BLOCK_ELEMENTS = 8192


def rollout_window(n_agents: int, n_states: int, m: int) -> int:
    """Steps per block of ``rollout``: WINDOW_CAP for a window, when a step
    over every state costs at most WINDOW_MAX_ELEMENTS search elements, else
    the per-step path's STEP_BLOCK_ELEMENTS // m, at least 1 and at most
    WINDOW_CAP."""
    if _draws_every_state(n_agents, n_states, m):
        return WINDOW_CAP
    return min(WINDOW_CAP, max(1, STEP_BLOCK_ELEMENTS // m))


def _draws_every_state(n_agents: int, n_states: int, m: int) -> bool:
    """Whether ``rollout`` runs windows: the cost rule on WINDOW_MAX_ELEMENTS."""
    return (n_agents + 1) * n_states * m <= WINDOW_MAX_ELEMENTS


def rollout_draws(n_agents: int, m: int, horizon: int) -> int:
    """Doubles ``rollout`` takes from a generator for m trajectories: m for
    the initial states, then per step m per agent and m for the transition."""
    return m * (1 + horizon * (n_agents + 1))


def rollout(
    game: MarkovGame,
    pi_tables: Sequence[np.ndarray],
    m: int,
    horizon: int,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Sample m trajectories side by side, yielding blocks of consecutive
    steps.

    ``pi_tables`` holds each agent's (S, k) action probabilities. A block of
    w steps is t-major (states, actions, joint action index, next states):
    actions is (n_agents, w, m), the rest are (w, m). The blocks' steps, in
    order, are the whole horizon, and no block is longer than WINDOW_CAP.
    The draw order is fixed, so a seeded ``rng`` reproduces the batch: it
    draws one uniform batch for the initial states, then per step one batch
    per agent in agent order and one for the transition, ``rollout_draws``
    doubles in all.

    A block of ``rollout_window`` steps takes its w steps' uniforms in one
    draw, which is the same stream as w draws of one step. In a window,
    each step's actions and successor are drawn for every state. Each
    successor is then written as its flat position in the next step's
    table, so the visited states are chased one 1-D gather per step, and
    the block is read at the positions visited. On the per-step path they
    are drawn step by step for the known current states only, each step
    written into the block's arrays. Either way each draw compares the
    same uniform with the same table row, so the blocks hold the same bits
    whatever their length.
    """
    n, n_states = game.n_agents, game.n_states
    counts, n_joint = game.action_counts, game.n_joint_actions
    # every agent's table in one, agent j's row for state s at s + j * S;
    # the +inf padding to the widest agent never changes a draw
    agent_table = np.concatenate([cdf_table(p, max(counts)) for p in pi_tables])
    agent_rows = np.arange(n)[:, None] * n_states
    strides = np.cumprod((1,) + counts[:0:-1])[::-1]  # C-order joint index
    trans_table = cdf_table(game.transition)
    a_width, t_width = agent_table.shape[1], trans_table.shape[1]
    window = rollout_window(n, n_states, m)
    windowed = _draws_every_state(n, n_states, m)
    every = np.arange(n_states)[:, None]
    cols = np.arange(m)
    if windowed:
        # every window searches the same rows, every state's for every agent
        agent_base = np.broadcast_to(
            (every[:, None] + agent_rows) * a_width, (window, n_states, n, m)
        ).copy()
        # a window's (w, S, m) tables hold step t, state s, column c at
        # flat position p = (t·S + s)·m + c: step t's successor sits at
        # succ·m + next_step[t] of step t + 1, and agent j's action for p
        # in the (w, S, n, m) actions at n·p + act_offsets[j]
        next_step = np.arange(1, window + 1)[:, None, None] * (n_states * m) + cols
        step_states = np.arange(window + 1)[:, None] * n_states
        act_offsets = np.arange(n)[:, None, None] * m - (n - 1) * cols
    s = np.searchsorted(np.cumsum(game.initial_dist), rng.random(m), side="right")
    s = s.clip(0, n_states - 1)
    for t0 in range(0, horizon, window):
        w = min(window, horizon - t0)
        u = rng.random((w, n + 1, m))  # per step one row per agent, then the transition
        if not windowed:  # draw for the known states, one step at a time
            path = np.empty((w + 1, m), dtype=np.intp)
            actions = np.empty((n, w, m), dtype=np.intp)
            joint = np.empty((w, m), dtype=np.intp)
            path[0] = s
            for t in range(w):
                s = path[t]
                acts = inverse_cdf(agent_table, (s + agent_rows) * a_width, u[t, :-1])
                actions[:, t] = acts
                joint[t] = strides @ acts
                base = (s * n_joint + joint[t]) * t_width
                path[t + 1] = inverse_cdf(trans_table, base, u[t, -1])
            yield path[:-1], actions, joint, path[1:]
            s = path[-1]
            continue
        # draw for every state: (w, S, n, m) actions, (w, S, m) successors
        acts = inverse_cdf(agent_table, agent_base[:w], u[:, None, :-1])
        joint = strides @ acts
        succ = inverse_cdf(trans_table, (every * n_joint + joint) * t_width, u[:, -1:])
        succ *= m  # each successor as its flat position in the next step
        succ += next_step[:w]
        succ = succ.reshape(-1)
        p = s * m + cols
        chase = [p]  # s_t's position, one 1-D gather per step
        for _ in range(w):
            p = succ[p]
            chase.append(p)
        pos = np.concatenate(chase).reshape(w + 1, m)
        path = pos // m - step_states[: w + 1]  # p // m = t·S + s
        pos = pos[:-1]
        actions = acts.reshape(-1)[n * pos + act_offsets]
        yield path[:-1], actions, joint.reshape(-1)[pos], path[1:]
        s = path[-1]


def add_block_signals(own_sums, block_sums, blocks, own, val) -> None:
    """Add each sample's signal ``val``, in sample order, at its (block, own
    action) cell of the flat ``own_sums`` and at its block of ``block_sums``.

    A block is one state's k-action span of a flat gradient: a (trajectory,
    state) pair in ``train``'s step and in ``mc_variance``, a state in a PPO
    epoch. ``own_sums`` holds n_blocks * k entries and ``block_sums``
    n_blocks. ``blocks``, ``own`` and ``val`` are one step's (m,) samples or
    a t-major (w, m) stack of steps, summed in C order, so a stack cut into
    consecutive pieces sums to the same bits as one call. pi(s) is fixed
    within a batch, so a block's sum of val * (e_own - pi(s)) is its own sums
    minus pi(s) times its block sum, which ``subtract_block_policy`` forms.
    """
    k = own_sums.size // block_sums.size
    # 1-D indices keep np.add.at on its fast path: a (8, 1000) block's two
    # calls took 195 us with (w, m) index arrays against 44 us flattened
    vals = val.reshape(-1)
    np.add.at(own_sums, (blocks * k + own).reshape(-1), vals)
    np.add.at(block_sums, blocks.reshape(-1), vals)


def subtract_block_policy(own_sums, block_sums, pi_table) -> None:
    """Finish ``add_block_signals``' sums into gradients in place:
    own_sums[..., s, a] -= block_sums[..., s] * pi_table[s, a], one action
    column at a time, so no temporary is as large as ``own_sums``."""
    for a in range(pi_table.shape[1]):
        own_sums[..., a] -= block_sums * pi_table[:, a]


def mean_step_gradient_by_state(
    game: MarkovGame,
    policy: JointPolicy,
    tables: ValueTables,
    agent: int,
) -> np.ndarray:
    """E_{a~pi}[Q * score | s] as (S, k_i); identical for all estimator kinds."""
    qi = marginal_q_rows(game, policy, tables.q, agent)
    pi_i = agent_prob_table(game, policy, agent)
    w = pi_i * qi  # (S, k)
    return w - w.sum(axis=1, keepdims=True) * pi_i


def exact_policy_gradient(
    game: MarkovGame,
    policy: JointPolicy,
    tables: ValueTables,
    agent: int,
) -> np.ndarray:
    """Exact discounted gradient of the expected return for one agent, from
    the caller's ``tables``.

    sum_s eta(s) E_{a~pi}[ Q(s,a) * score | s ], with the discounted
    occupancy eta = sum_t gamma^t d^t = d0 (I - gamma P_pi)^{-1} from one
    linear solve judged as ``solve_values``' is, so no horizon truncates it.
    """
    _check_agent(game, agent)
    check_policy_fits(game, policy)
    by_state = mean_step_gradient_by_state(game, policy, tables, agent)
    eta = _solve_discounted(game.gamma, policy_transition(game, policy).T,
                            game.initial_dist)
    return (eta[:, None] * by_state).reshape(-1)
