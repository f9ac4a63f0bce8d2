"""Exact value functions for finite Markov games under a joint policy.

V solves the |S|-dimensional linear system (I - gamma P_pi) V = r_pi directly,
and the solve is judged once, by its normwise backward error; Q follows from
one Bellman backup. Marginal Q-values over a coalition of agents are exact
expectations over the excluded agents' product policy, and coalition
advantages are differences of two marginals:

    A^{of}(s, a_given, a_of) = Q^{given+of}(s, ...) - Q^{given}(s, ...)

The telescoping identity behind `advantage_decomposition` is the reason the
per-agent advantages chain into the joint one in any order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import DEFAULT_ENUMERATION_CAP, EnumerationCapExceeded, MarkovGame
from .policies import JointPolicy, check_policy_fits, joint_action_prob_table

BELLMAN_TOL = 1e-9  # relative to max(1, max|v|)


class SingularSystem(RuntimeError):
    """The value linear system could not be solved to tolerance."""


@dataclass(frozen=True, eq=False)
class ValueTables:
    """q: (n_states, n_joint_actions); v: (n_states,). Immutable after solve."""

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).copy()
        v = np.asarray(self.v, dtype=float).copy()
        q.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "v", v)


def policy_transition(game: MarkovGame, policy: JointPolicy) -> np.ndarray:
    """State-to-state kernel P_pi(s'|s) under the joint policy."""
    probs = joint_action_prob_table(game, policy)
    return np.einsum("sa,sat->st", probs, game.transition)


def _solve_discounted(gamma: float, kernel: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with (I - gamma kernel) x = rhs from one dense solve, judged by its
    normwise backward error max|Mx - rhs| / (||M|| max|x| + max|rhs|), inf-norms
    (0 at a zero residual, inf at a non-finite x): a failed solve or an error
    above 4 * S * eps raises SingularSystem. An absolute test would fail near
    gamma = 1, where x grows like 1/(1 - gamma)."""
    m = np.eye(rhs.size) - gamma * kernel
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"value system is singular: {exc}") from exc
    backward = math.inf
    if np.all(np.isfinite(x)):
        residual = float(np.max(np.abs(m @ x - rhs)))
        norms = np.max(np.abs(m).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
        backward = residual / float(norms) if residual else 0.0
    limit = 4 * rhs.size * math.ulp(1.0)
    if not backward <= limit:
        raise SingularSystem(f"value system of {rhs.size} states: normwise backward "
                             f"error {backward!r} above 4 * S * eps = {limit!r}")
    return x


def solve_values(game: MarkovGame, policy: JointPolicy) -> ValueTables:
    """Exact Q and V from one dense solve of (I - gamma P_pi) V = r_pi. Raises
    SingularSystem if the solve fails ``_solve_discounted``'s check or V misses
    the policy average of Q by more than BELLMAN_TOL * max(1, max|V|), and
    ValueError if the policy does not fit the game (``check_policy_fits``)."""
    check_policy_fits(game, policy)
    if game.n_states * game.n_joint_actions > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{game.n_states * game.n_joint_actions} q-table entries exceeds "
            f"{DEFAULT_ENUMERATION_CAP}"
        )
    probs = joint_action_prob_table(game, policy)
    p_pi = np.einsum("sa,sat->st", probs, game.transition)
    r_pi = np.einsum("sa,sa->s", probs, game.reward)
    v = _solve_discounted(game.gamma, p_pi, r_pi)
    q = game.reward + game.gamma * game.transition @ v
    bellman = float(np.max(np.abs(v - np.einsum("sa,sa->s", probs, q))))
    limit = BELLMAN_TOL * max(1.0, float(np.max(np.abs(v))))
    if bellman > limit:
        raise SingularSystem(f"Bellman residual {bellman!r} exceeds {limit!r}")
    return ValueTables(q=q, v=v)


def agent_subset(indices, n_agents: int) -> tuple[int, ...]:
    """Validated coalition: distinct agent indices in [0, n). Order preserved."""
    subset = tuple(int(i) for i in indices)
    if len(set(subset)) != len(subset):
        raise ValueError(f"coalition indices must be distinct: {subset}")
    for i in subset:
        if not 0 <= i < n_agents:
            raise ValueError(f"agent index {i} out of range [0, {n_agents})")
    return subset


def _contract(a: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """``np.tensordot(a, p, axes=(axis, 0))`` for a 1-D ``p``, bit for bit: the
    one product tensordot makes (axis moved last, rows dotted with a (k, 1) p),
    without its argument handling."""
    k = a.shape[axis]
    if axis != a.ndim - 1:
        a = a.transpose([*range(axis), *range(axis + 1, a.ndim), axis])
    return np.dot(a.reshape(-1, k), p.reshape(k, 1)).reshape(a.shape[:-1])


def _check_lattice_size(action_counts) -> None:
    """Refuse a coalition lattice above DEFAULT_ENUMERATION_CAP entries."""
    entries = math.prod(1 + k for k in action_counts)  # per state
    if entries > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"the coalition lattice of {len(action_counts)} agents holds "
            f"{entries} entries per state, above {DEFAULT_ENUMERATION_CAP}"
        )


def marginal_q_lattice(
    game: MarkovGame,
    policy: JointPolicy,
    tables: ValueTables,
    s: int,
) -> dict[tuple[int, ...], np.ndarray]:
    """Q^K(s, .) for every coalition K at s, keyed by K in ascending order.

    Walks the subset lattice down from the full set: Q^K is Q^{K+e}
    contracted against pi_e(s), e being K's smallest excluded agent, so
    the excluded agents are integrated out from the highest index down and
    each of the 2^n tensors is built once. Tensor axes follow ascending agent
    index; the empty coalition's 0-d tensor is V(s). Above
    DEFAULT_ENUMERATION_CAP entries, prod_j (1 + k_j), it builds none and
    raises EnumerationCapExceeded.
    """
    n = game.n_agents
    _check_lattice_size(game.action_counts)
    out = {tuple(range(n)): tables.q[s].reshape(game.action_counts)}
    for mask in range((1 << n) - 2, -1, -1):  # every superset comes first
        coalition = tuple(j for j in range(n) if mask >> j & 1)
        e = next(j for j in range(n) if not mask >> j & 1)
        parent = tuple(sorted(coalition + (e,)))
        # all agents below e are kept, so e's axis in the parent is e
        out[coalition] = _contract(out[parent], policy.probs(e, s), e)
    return out


def advantage_decomposition(
    game: MarkovGame, marginals, order, actions, prefix_lens
) -> list[tuple[float, float]]:
    """Coalition advantage vs. its telescoped per-agent chain, read from one
    state's ``marginal_q_lattice``; returns one (lhs, rhs) per prefix length.

    ``order`` is any sequence of distinct agents; ``actions`` their actions in
    the same order. For each prefix length p in ``prefix_lens``, the first p
    agents are held fixed as the conditioning coalition on both sides. lhs is
    the advantage of the remaining agents acting jointly; rhs peels them off
    one at a time:

        A^{rest}(s, prefix, a_rest) = sum_j A^{order[j]}(s, order[:j], a_j)

    Exact for every ordering, which is why the identity is permutation-free.
    The chain's len(order) + 1 values are read once for every prefix length.
    """
    order = agent_subset(order, game.n_agents)
    actions = tuple(int(a) for a in actions)
    if len(actions) != len(order):
        raise ValueError("one action per agent in `order` required")
    counts = game.action_counts
    for agent, a in zip(order, actions):
        if not 0 <= a < counts[agent]:
            raise ValueError(
                f"action {a} of agent {agent} out of range [0, {counts[agent]})"
            )
    prefix_lens = tuple(prefix_lens)
    if not all(0 <= p <= len(order) for p in prefix_lens):
        raise ValueError("prefix_len out of range")
    values = []  # Q^{order[:j]} at the first j actions; axes ascend by agent
    for j in range(len(order) + 1):
        idx = tuple(a for _, a in sorted(zip(order[:j], actions[:j])))
        values.append(float(marginals[tuple(sorted(order[:j]))][idx]))
    out = []
    for prefix_len in prefix_lens:
        rhs = 0.0
        for j in range(prefix_len, len(order)):
            rhs += values[j + 1] - values[j]
        out.append((values[-1] - values[prefix_len], rhs))
    return out


def state_distributions(
    game: MarkovGame, policy: JointPolicy, t_max: int
) -> np.ndarray:
    """d^t for t = 0..t_max as a (t_max+1, n_states) array; a table above
    DEFAULT_ENUMERATION_CAP entries raises EnumerationCapExceeded first."""
    if (t_max + 1) * game.n_states > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"state distributions of {t_max + 1} rows x {game.n_states} states "
            f"exceed {DEFAULT_ENUMERATION_CAP}"
        )
    p_pi = policy_transition(game, policy)
    out = np.empty((t_max + 1, game.n_states))
    out[0] = game.initial_dist
    for t in range(t_max):
        out[t + 1] = out[t] @ p_pi
    return out
