"""Per-agent policies and their output-layer score functions.

Tabular softmax policies hold one logit vector per state. The diagonal
Gaussian score functions serve the continuous one-step task's (mean, std)
actors. All gradients here are with respect to the policy's output layer: for
softmax that is the logit vector itself, so grad log pi(a) = e_a - pi.
``score_geometry`` is the one place its geometry is formed. The x-measure
reweights actions by the score's squared norm; under it the optimal baseline
is a plain expectation of Q.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


class DegeneratePolicy(ValueError):
    """The x-measure is undefined: 1 - ||pi||^2 is exactly 0, a one-hot row."""


def softmax_probs(logits) -> np.ndarray:
    """Softmax of one logit vector (k,), or of each row of a (..., k) stack."""
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    # a row spanning more than the float range gives -inf, whose exp is 0
    with np.errstate(over="ignore"):
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def score_geometry(probs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The softmax scores of a row pi (k,) or of each row of a (..., k)
    stack, formed from c_a = sum_{b != a} pi_b without cancellation:
    scores (..., k, k), row a being e_a - pi with c_a for 1 - pi_a; norm_sq
    (..., k), ||e_a - pi||^2 = c_a^2 + sum_{b != a} pi_b^2; and gap (...,),
    1 - ||pi||^2 = sum_a pi_a c_a. Sums of non-negative terms, so gap is 0
    only on a one-hot row; masked sums rather than matrix products, so a
    stack's rows equal single rows bit for bit."""
    probs = np.asarray(probs, dtype=float)
    eye = np.eye(probs.shape[-1], dtype=bool)
    others = np.where(eye, 0.0, probs[..., None, :])  # row a: pi with pi_a zeroed
    c = others.sum(axis=-1)
    scores = np.where(eye, c[..., None], -others)
    return scores, (scores * scores).sum(axis=-1), (probs * c).sum(axis=-1)


def x_measure_softmax(probs) -> np.ndarray:
    """Score-norm-weighted action measure x(a) = pi(a) ||e_a - pi||^2 / (1 - ||pi||^2).

    ``probs`` is one distribution of shape (k,) or a stack (..., k) of them;
    each row is weighted on its own, from its ``score_geometry``. The
    normalizer 1 - ||pi||^2 is the expected squared score norm under pi; it
    is 0 only for a one-hot row, where the measure is undefined, and any
    such row raises. A single action has a zero score vector and any
    baseline is optimal for it, so width-1 rows return x = pi.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape[-1] == 1:
        return probs.copy()
    _, norm_sq, gap = score_geometry(probs)
    if np.any(gap == 0.0):
        raise DegeneratePolicy("1 - ||pi||^2 = 0.0 on a one-hot row; x-measure undefined")
    return probs * norm_sq / gap[..., None]


def gaussian_std_powers(std) -> tuple[np.ndarray, np.ndarray]:
    """(std**2, std**3) of a diagonal Gaussian's std, the powers its score
    divides by. Raises ValueError unless every std is positive and both
    powers are normal floats: a power that overflows or underflows turns the
    score into inf or NaN."""
    std = np.atleast_1d(np.asarray(std, dtype=float))
    if np.any(std <= 0):
        raise ValueError("std must be strictly positive")
    with np.errstate(over="ignore", under="ignore"):
        s2, s3 = std**2, std**3
    if not all(_TINY <= p <= _HUGE for p in (*s2.tolist(), *s3.tolist())):
        raise ValueError(
            f"std {std.tolist()} puts std**2 or std**3 outside the normal float range"
        )
    return s2, s3


def gaussian_log_prob_grad(mean, std, action) -> np.ndarray:
    """Gradient of log N(action; mean, std) w.r.t. (mean, std), concatenated.

    d/dmean = (a - mean)/std^2 and d/dstd = ((a - mean)^2 - std^2)/std^3,
    componentwise; the returned vector is [mean components..., std components...].
    ``action`` may be an (m, d) stack, giving one such row per action. The
    std is checked by ``gaussian_std_powers``.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    action = np.atleast_1d(np.asarray(action, dtype=float))
    s2, s3 = gaussian_std_powers(std)
    diff = action - mean
    d_mean = diff / s2
    d_std = (diff**2 - s2) / s3
    return np.concatenate([d_mean, d_std], axis=-1)


@dataclass(frozen=True, eq=False)
class SoftmaxPolicy:
    """Tabular softmax actor: one logit vector per state, shape (S, k).

    The (S, k) probability table is computed once, at construction, and is
    read-only; each of its rows equals ``softmax_probs`` of that state's
    logits bit for bit.
    """

    logits: np.ndarray
    _table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.logits, dtype=float)).copy()
        if arr.shape[-1] == 0:
            raise ValueError(f"logits have shape {arr.shape}: a state has no action")
        table = softmax_probs(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "logits", arr)
        table.setflags(write=False)
        object.__setattr__(self, "_table", table)

    @property
    def n_actions(self) -> int:
        return self.logits.shape[1]

    def probs(self, s: int) -> np.ndarray:
        return self._table[s]

    def all_probs(self) -> np.ndarray:
        return self._table


@dataclass(frozen=True, eq=False)
class JointPolicy:
    """One policy per agent; joint probability is the per-agent product."""

    agents: tuple

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if not self.agents:
            raise ValueError("at least one agent policy required")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def probs(self, i: int, s: int) -> np.ndarray:
        return self.agents[i].probs(s)


def check_policy_fits(game, policy: JointPolicy) -> None:
    """Raise ValueError unless ``policy`` has one agent per game agent, agent
    i's logits of shape (n_states, k_i): a one-row table is not broadcast."""
    if policy.n_agents != game.n_agents:
        raise ValueError(f"{policy.n_agents} agent(s), the game has {game.n_agents}")
    for i, (agent, k) in enumerate(zip(policy.agents, game.action_counts)):
        if agent.logits.shape != (game.n_states, k):
            raise ValueError(
                f"agent {i} logits have shape {agent.logits.shape}, "
                f"the game needs {(game.n_states, k)}"
            )


def _product_table(n_states: int, tables) -> np.ndarray:
    """(n_states, prod k_j) product distribution of (n_states, k_j) action
    tables, in C order; no tables give one column of ones."""
    out = np.ones((n_states, 1))
    for p in tables:
        out = (out[:, :, None] * p[:, None, :]).reshape(n_states, -1)
    return out


def joint_action_prob_table(game, policy: JointPolicy) -> np.ndarray:
    """(n_states, n_joint_actions) table of joint-action probabilities."""
    return _product_table(game.n_states, [agent.all_probs() for agent in policy.agents])


def uniform_policy(game) -> JointPolicy:
    return JointPolicy(
        tuple(
            SoftmaxPolicy(np.zeros((game.n_states, k))) for k in game.action_counts
        )
    )


def random_softmax_policy(game, rng: np.random.Generator, scale: float = 1.0) -> JointPolicy:
    return JointPolicy(
        tuple(
            SoftmaxPolicy(scale * rng.standard_normal((game.n_states, k)))
            for k in game.action_counts
        )
    )


POLICY_SCHEMA_VERSION = 1


def policy_to_dict(policy: JointPolicy) -> dict:
    agents = [{"kind": "softmax", "logits": a.logits.tolist()} for a in policy.agents]
    return {"schema_version": POLICY_SCHEMA_VERSION, "agents": agents}


def policy_from_dict(data: dict) -> JointPolicy:
    """Invert policy_to_dict. A malformed document raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a policy document must be a JSON object")
    version = data.get("schema_version")
    if version != POLICY_SCHEMA_VERSION:
        raise ValueError(f"unsupported policy schema_version {version!r}")
    entries = data.get("agents")
    if not isinstance(entries, list):
        raise ValueError("a policy document must list its agents")
    agents = []
    for entry in entries:
        kind = entry.get("kind") if isinstance(entry, dict) else None
        if kind != "softmax":
            raise ValueError(f"unknown policy kind {kind!r}")
        try:
            agents.append(SoftmaxPolicy(np.array(entry["logits"], dtype=float)))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed softmax agent: {exc!r}") from exc
    return JointPolicy(tuple(agents))


def save_policy(path, policy: JointPolicy) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(policy_to_dict(policy), indent=2) + "\n")


def load_policy(path) -> JointPolicy:
    with open(path, encoding="utf-8") as fh:
        return policy_from_dict(json.load(fh))
