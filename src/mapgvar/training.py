"""Tabular actor training with selectable baselines.

The loop rolls out a batch of trajectories, looks up q from an exact or
TD-learned critic, subtracts the configured baseline (none, counterfactual
mean, or the variance-optimal one), and ascends the policy-gradient
objective — optionally through a clipped-ratio surrogate for a few epochs
per batch. Everything is driven by one seeded generator, so a (game, config,
initial policy) triple reproduces bit-identically.

Plain gradient ascent on the logits, no adaptive optimizer: determinism and
attributability matter more at this scale than wall-clock, and the optimizer
is orthogonal to what is being measured.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .baselines import BaselineKind, BaselineTag, ob_surrogate_gaussian
from .estimators import (
    EstimatorKind,
    EstimatorTag,
    add_block_signals,
    default_horizon,
    param_dim,
    rollout,
    signal_table,
    subtract_block_policy,
)
from .games import DEFAULT_ENUMERATION_CAP, EnumerationCapExceeded, MarkovGame
from .games import _integer, _real  # one reader for every input document
from .policies import (
    JointPolicy,
    SoftmaxPolicy,
    gaussian_log_prob_grad,
    joint_action_prob_table,
    policy_from_dict,
    policy_to_dict,
    uniform_policy,
)
from .values import solve_values

CHECKPOINT_SCHEMA_VERSION = 1
HISTORY_SCHEMA_VERSION = 1


class DivergenceError(RuntimeError):
    """Raised when |J| exceeds its a-priori bound — always indicates a bug."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class CriticConfig:
    """mode 'exact' solves for q each iteration; 'td' learns it from the batch."""

    mode: str = "exact"
    lr: float = 0.5
    target_sync_interval: int = 1

    def __post_init__(self):
        if self.mode not in ("exact", "td"):
            raise ValueError(f"unknown critic mode {self.mode!r}")
        if not 0.0 < self.lr <= 1.0:
            raise ValueError("critic lr must be in (0, 1]")
        if self.target_sync_interval < 1:
            raise ValueError("target_sync_interval must be >= 1")


@dataclass(frozen=True)
class PPOConfig:
    eps_clip: float = 0.2
    epochs: int = 4

    def __post_init__(self):
        if not 0.0 < self.eps_clip < 1.0:
            raise ValueError("eps_clip must be in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    baseline: BaselineKind = field(
        default_factory=lambda: BaselineKind(BaselineTag.OB_SURROGATE)
    )
    actor_lr: float = 0.1
    critic: CriticConfig = field(default_factory=CriticConfig)
    batch_size: int = 32
    ppo: PPOConfig | None = None
    horizon: int | None = None
    iterations: int = 100
    seed: int = 0
    ob_n_samples: int = 1000
    entropy_coef: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.actor_lr < math.inf:  # NaN fails too
            raise ValueError(
                f"actor_lr must be positive and finite, got {self.actor_lr}"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.ob_n_samples < 2:
            raise ValueError("ob_n_samples must be >= 2")
        if not 0.0 <= self.entropy_coef < math.inf:
            raise ValueError(
                f"entropy_coef must be >= 0 and finite, got {self.entropy_coef}"
            )


def config_to_dict(config: TrainConfig) -> dict:
    return {**asdict(config), "baseline": config.baseline.tag.value}


def _section(cls, value, name: str = "", complete: bool = False):
    """``cls`` built from the entries the object ``value`` holds, each
    converted by its field's annotation; an absent entry takes the dataclass
    default, or raises ValueError if ``complete``."""
    if not isinstance(value, dict):
        raise ValueError("config entries 'critic' and 'ppo' must be objects")
    kwargs = {}
    for f in fields(cls):
        key = f"{name}.{f.name}" if name else f.name
        if f.name in value:  # f.type is the annotation's text (postponed)
            kwargs[f.name] = _CONVERTERS[f.type](value[f.name], key)
        elif complete:
            raise ValueError(f"config entry {name!r} needs {f.name!r}")
    return cls(**kwargs)


_CONVERTERS = {
    "int": lambda value, name: _integer(value, f"config entry {name!r}"),
    "float": lambda value, name: _real(value, f"config entry {name!r}"),
    "str": lambda value, name: value,
    "int | None": lambda value, name: (
        None if value is None else _integer(value, f"config entry {name!r}")
    ),
    "BaselineKind": lambda value, name: BaselineKind(BaselineTag(value)),
    "CriticConfig": lambda value, name: _section(CriticConfig, value, name),
    "PPOConfig | None": lambda value, name: (
        None if value is None else _section(PPOConfig, value, name, complete=True)
    ),
}


def config_from_dict(data: dict) -> TrainConfig:
    """Invert config_to_dict; absent keys take the dataclass defaults, except
    inside 'ppo', which needs every key. A malformed document raises
    ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a train config must be a JSON object")
    try:
        return _section(TrainConfig, data)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed train config: {exc}") from exc


# ---------------------------------------------------------------------------
# history / results


@dataclass(frozen=True)
class TrainHistory:
    """Per-iteration diagnostics; all tuples have length == iterations.

    returns[k] is the exact expected return of the policy at the START of
    iteration k (solved, not sampled). grad_variance[k] is the sample total
    variance of the per-trajectory gradient vectors inside iteration k's
    batch; grad_norm[k] the norm of the batch-mean gradient actually applied.
    """

    returns: tuple[float, ...]
    grad_variance: tuple[float, ...]
    grad_norm: tuple[float, ...]
    entropies: tuple[tuple[float, ...], ...]  # per iteration, per agent

    def __len__(self) -> int:
        return len(self.returns)

    @property
    def csv_header(self) -> tuple[str, ...]:
        n_agents = len(self.entropies[0]) if self.entropies else 0
        return ("iteration", "expected_return", "grad_variance", "grad_norm",
                *(f"entropy_agent{i}" for i in range(n_agents)))

    def to_csv_rows(self) -> list[tuple]:
        columns = zip(self.returns, self.grad_variance, self.grad_norm, self.entropies)
        return [(k, j, v, g, *e) for k, (j, v, g, e) in enumerate(columns)]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": HISTORY_SCHEMA_VERSION,
            "iterations": len(self.returns),
            "final_return": self.returns[-1] if self.returns else None,
            "returns": list(self.returns),
            "grad_variance": list(self.grad_variance),
            "grad_norm": list(self.grad_norm),
            "entropies": [list(e) for e in self.entropies],
        }


@dataclass(frozen=True)
class TrainResult:
    history: TrainHistory
    policy: JointPolicy
    config: TrainConfig
    final_rng_state: dict


@dataclass(frozen=True)
class CriticState:
    q: np.ndarray
    target_q: np.ndarray
    config: CriticConfig
    sweeps: int = 0


def init_critic(game: MarkovGame, config: CriticConfig) -> CriticState:
    shape = (game.n_states, game.n_joint_actions)
    return CriticState(q=np.zeros(shape), target_q=np.zeros(shape), config=config)


def td_learn_q(
    game: MarkovGame,
    policy: JointPolicy,
    batch,
    state: CriticState,
) -> CriticState:
    """One TD pass: batch=None does a full synchronous expected sweep over
    every (s, joint action); otherwise batch is four equal-length arrays
    (states, joint action indices, rewards, next states), the transitions in
    the order they are applied.

    Targets bootstrap from the target table, which re-syncs every
    target_sync_interval sweeps. Full synchronous sweeps with interval 1
    contract toward the solved q at rate (1 - lr) + lr * gamma per sweep.
    """
    probs = joint_action_prob_table(game, policy)  # (S, A)
    q, lr = state.q.copy(), state.config.lr
    expected_next = np.einsum("sa,sa->s", probs, state.target_q)  # E_{a'}[Q_tgt(s',.)]
    if batch is None:
        targets = game.reward + game.gamma * game.transition @ expected_next
        q += lr * (targets - q)
    else:
        s, a_idx, r, s_next = batch
        cells = np.ravel_multi_index((s, a_idx), q.shape)
        targets = r + game.gamma * expected_next[s_next]
        # in order on Python floats: the roundings of numpy scalar updates,
        # without their indexing cost
        flat = q.reshape(-1).tolist()
        for c, y in zip(cells.tolist(), targets.tolist()):
            flat[c] += lr * (y - flat[c])
        q = np.array(flat).reshape(q.shape)
    sweeps = state.sweeps + 1
    target_q = state.target_q
    if sweeps % state.config.target_sync_interval == 0:
        target_q = q.copy()
    return replace(state, q=q, target_q=target_q, sweeps=sweeps)


def _batch_statistics(per_agent: list[np.ndarray]):
    """Statistics of one batch of per-trajectory gradients, agent i's block
    of shape (batch, dim_i): each agent's slice of the batch-mean gradient,
    the total sample variance (0 for a batch of one) and the mean's norm."""
    flat = np.concatenate(per_agent, axis=1)
    mean = flat.mean(axis=0)
    dev = flat - mean
    variance = float(np.einsum("bd,bd->", dev, dev) / max(len(flat) - 1, 1))
    steps = np.split(mean, np.cumsum([g.shape[1] for g in per_agent])[:-1])
    return steps, variance, float(np.linalg.norm(mean))


# ---------------------------------------------------------------------------
# the discrete training loop


# each actor baseline turns q into one estimator kind's signal; for softmax
# actors the exact optimal baseline is the x-measure one
_SIGNAL_FOR_BASELINE = {
    BaselineTag.NONE: EstimatorTag.CENTRALIZED_VANILLA,
    BaselineTag.COMA: EstimatorTag.COMA,
    BaselineTag.OB_SURROGATE: EstimatorTag.OB_X,
    BaselineTag.OB_EXACT: EstimatorTag.OB_X,
}


def train(
    game: MarkovGame,
    initial_policy: JointPolicy | None,
    config: TrainConfig,
) -> TrainResult:
    """Run the full loop; see the module docstring for the shape of one step.

    Returns the final policy alongside the history so callers can checkpoint
    or evaluate; histories from identical (game, initial policy, config) are
    bit-identical. A batch of more than DEFAULT_ENUMERATION_CAP steps
    (horizon x batch_size), or more iterations than that many history rows,
    raises EnumerationCapExceeded before any solve.
    """
    if initial_policy is None:
        initial_policy = uniform_policy(game)
    rng = np.random.default_rng(config.seed)
    n = game.n_agents
    counts = game.action_counts
    logits = [np.array(agent.logits, dtype=float) for agent in initial_policy.agents]
    horizon = config.horizon or default_horizon(game.gamma, game.beta)
    batch = config.batch_size
    if horizon * batch > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"horizon {horizon} x batch_size {batch} steps per iteration exceeds "
            f"{DEFAULT_ENUMERATION_CAP}"
        )
    if config.iterations > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"iterations {config.iterations} exceed {DEFAULT_ENUMERATION_CAP} "
            "history rows"
        )
    j_bound = 10.0 * game.beta / (1.0 - game.gamma)
    use_td = config.critic.mode == "td"
    critic = init_critic(game, config.critic) if use_td else None
    signal_tag = _SIGNAL_FOR_BASELINE[config.baseline.tag]
    # gamma^t rounded as a running product, step by step
    discounts = np.cumprod(np.r_[1.0, np.full(horizon - 1, game.gamma)])

    returns, grad_vars, grad_norms, entropies = [], [], [], []
    for _ in range(config.iterations):
        policy = JointPolicy(tuple(SoftmaxPolicy(l) for l in logits))
        tables = solve_values(game, policy)
        j_val = float(game.initial_dist @ tables.v)
        if not math.isfinite(j_val) or abs(j_val) > j_bound:
            raise DivergenceError(
                f"expected return {j_val} exceeds bound {j_bound}",
                report={
                    "J": j_val,
                    "bound": j_bound,
                    "iteration": len(returns),
                    "max_abs_logit": max(float(np.abs(l).max()) for l in logits),
                },
            )
        returns.append(j_val)
        pi_tables = [agent.all_probs() for agent in policy.agents]
        entropies.append(
            tuple(
                float(
                    -(p * np.log(np.clip(p, 1e-300, None))).sum(axis=1).mean()
                )
                for p in pi_tables
            )
        )
        q_table = critic.q if use_td else tables.q

        # t-major (horizon, batch) arrays; actions gains a leading agent axis
        states, joint_idx, next_states = np.empty((3, horizon, batch), dtype=np.int64)
        actions = np.empty((n, horizon, batch), dtype=np.int64)
        t = 0
        for block in rollout(game, pi_tables, batch, horizon, rng):
            at = slice(t, t + len(block[0]))
            states[at], actions[:, at], joint_idx[at], next_states[at] = block
            t = at.stop

        # per-trajectory gradients, block = trajectory * S + state, plus the
        # per-sample discounted signals, the clipped epochs' advantages
        grads, vals = [], []
        joint_cells = states * game.n_joint_actions + joint_idx  # one index, every agent
        blocks = np.arange(batch) * game.n_states + states
        for i in range(n):
            kind = EstimatorKind(signal_tag, i)
            sig = np.take(signal_table(kind, game, policy, q_table), joint_cells)
            vals.append(discounts[:, None] * sig)
            grads.append(np.zeros(batch * param_dim(game, i)))
            totals = np.zeros((batch, game.n_states))
            add_block_signals(grads[i], totals.reshape(-1), blocks, actions[i], vals[i])
            subtract_block_policy(grads[i].reshape(batch, -1, counts[i]), totals,
                                  pi_tables[i])

        steps, grad_var, grad_norm = _batch_statistics(
            [g.reshape(batch, -1) for g in grads]
        )
        grad_vars.append(grad_var)
        grad_norms.append(grad_norm)

        if config.ppo is None:
            for i in range(n):
                logits[i] = logits[i] + config.actor_lr * steps[i].reshape(
                    logits[i].shape
                )
        else:
            # one ratio per (state, action) cell, read per sample; a cell of
            # probability 0 has log -inf, and no sample reads its ratio
            with np.errstate(divide="ignore", invalid="ignore"):
                old_logp = [np.log(p) for p in pi_tables]
            for _ in range(config.ppo.epochs):
                new_tables = [SoftmaxPolicy(l).all_probs() for l in logits]
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratios = [np.exp(np.log(p) - lp) for p, lp in zip(new_tables, old_logp)]
                for i in range(n):
                    ratio, adv = ratios[i][states, actions[i]], vals[i]
                    clipped_out = (
                        (adv > 0) & (ratio > 1.0 + config.ppo.eps_clip)
                    ) | ((adv < 0) & (ratio < 1.0 - config.ppo.eps_clip))
                    coef = np.where(clipped_out, 0.0, ratio * adv)
                    coef /= batch * horizon
                    # block = state: the epoch's step is one sum over the batch
                    step, totals = np.zeros(logits[i].shape), np.zeros(game.n_states)
                    add_block_signals(step.reshape(-1), totals, states, actions[i], coef)
                    subtract_block_policy(step, totals, new_tables[i])
                    logits[i] = logits[i] + config.actor_lr * step

        if config.entropy_coef > 0.0:
            for i in range(n):
                p = SoftmaxPolicy(logits[i]).all_probs()
                log_p = np.log(np.clip(p, 1e-300, None))
                ent = -(p * log_p).sum(axis=1, keepdims=True)
                logits[i] = logits[i] + config.actor_lr * config.entropy_coef * (
                    -p * (log_p + ent)
                )

        if use_td:
            # transitions in trajectory order: all of trajectory 0, then 1, ...
            s, a_idx, s_next = (x.T.reshape(-1) for x in (states, joint_idx, next_states))
            r = game.reward[s, a_idx]
            critic = td_learn_q(game, policy, (s, a_idx, r, s_next), critic)

    final_policy = JointPolicy(tuple(SoftmaxPolicy(l) for l in logits))
    history = TrainHistory(
        returns=tuple(returns),
        grad_variance=tuple(grad_vars),
        grad_norm=tuple(grad_norms),
        entropies=tuple(entropies),
    )
    return TrainResult(
        history=history,
        policy=final_policy,
        config=config,
        final_rng_state=rng.bit_generator.state,
    )


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, config: TrainConfig, policy: JointPolicy, rng_state: dict):
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": config_to_dict(config),
        "policy": policy_to_dict(policy),
        "rng_state": rng_state,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def load_checkpoint(path) -> tuple[TrainConfig, JointPolicy, dict]:
    """Invert save_checkpoint. A malformed document raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a checkpoint must be a JSON object")
    version = data.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(f"unsupported checkpoint schema_version {version!r}")
    missing = [key for key in ("config", "policy", "rng_state") if key not in data]
    if missing:
        raise ValueError(f"a checkpoint needs {', '.join(missing)}")
    return (
        config_from_dict(data["config"]),
        policy_from_dict(data["policy"]),
        data["rng_state"],
    )


# ---------------------------------------------------------------------------
# continuous one-step task (Gaussian actors)


@dataclass(frozen=True)
class ContinuousOneStepTask:
    """A single-state game with real-valued actions: payoff maps a batch of
    joint action vectors (m, total_dim) to rewards (m,). beta bounds |payoff|.

    The payoff's argument is read-only; ``train_gaussian`` passes the batch
    row-major and the sampled baseline's counterfactual rows column-major,
    so a numpy payoff that sums 8 or more components of a row rounds by
    that layout (pairwise on row-major input, left to right otherwise).
    """

    payoff: object  # callable (m, total_dim) -> (m,)
    dims: tuple[int, ...]
    beta: float

    @property
    def n_agents(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return int(sum(self.dims))


def _payoff_values(task: ContinuousOneStepTask, joint) -> np.ndarray:
    """The payoff of each row of the read-only (m, total_dim) matrix joint."""
    q_vals = np.asarray(task.payoff(joint), dtype=float)
    if q_vals.shape != joint.shape[:1]:
        raise ValueError(
            f"payoff returned shape {q_vals.shape} for {joint.shape[0]} joint "
            f"actions; it must return one value per row, shape ({joint.shape[0]},)"
        )
    return q_vals


def train_gaussian(
    task: ContinuousOneStepTask,
    initial_params,
    config: TrainConfig,
) -> tuple[TrainHistory, list]:
    """Gaussian-actor analogue of train() on a continuous one-step task.

    initial_params is a list of (mean, std) arrays per agent. The baseline is
    the sampled surrogate (config.ob_n_samples fresh actions per update,
    counterfactual q queried from the payoff), COMA-style mean, or none.
    The COMA-style mean is the batch mean of q, each row's own q included,
    so the expected step is (1 - 1/batch_size) times the gradient.
    Returns are batch-mean estimates: there is no solver to make them exact.
    A payoff that does not return one value per row raises ValueError.
    """
    params = [
        (np.array(m, dtype=float), np.array(s, dtype=float))
        for m, s in initial_params
    ]
    if len(params) != task.n_agents:
        raise ValueError("one (mean, std) pair per agent required")
    for i, (mean, std) in enumerate(params):
        if mean.shape != (task.dims[i],) or std.shape != (task.dims[i],):
            raise ValueError(
                f"agent {i}'s mean and std must each hold {task.dims[i]} components"
            )
    rng = np.random.default_rng(config.seed)
    offsets = np.concatenate(([0], np.cumsum(task.dims))).astype(int)
    batch, n_ob = config.batch_size, config.ob_n_samples
    sampled_ob = config.baseline.tag not in (BaselineTag.NONE, BaselineTag.COMA)
    # each agent's counterfactual noise, drawn afresh into the same memory
    z_bufs = [np.empty((batch, n_ob, d)) for d in task.dims] if sampled_ob else []
    j_bound = 10.0 * task.beta
    returns, grad_vars, grad_norms, entropies = [], [], [], []
    for _ in range(config.iterations):
        samples = np.empty((batch, task.total_dim))
        for i, (mean, std) in enumerate(params):
            samples[:, offsets[i] : offsets[i + 1]] = mean + std * rng.standard_normal(
                (batch, task.dims[i])
            )
        samples.flags.writeable = False
        q_vals = _payoff_values(task, samples)
        j_val = float(q_vals.mean())
        if not math.isfinite(j_val) or abs(j_val) > j_bound:
            raise DivergenceError(
                f"estimated return {j_val} exceeds bound {j_bound}",
                report={"J": j_val, "bound": j_bound, "iteration": len(returns)},
            )
        returns.append(j_val)
        entropies.append(
            tuple(
                float(
                    0.5 * np.sum(np.log(2.0 * math.pi * math.e * std**2))
                )
                for _, std in params
            )
        )
        per_traj = []
        for i, (mean, std) in enumerate(params):
            cols = slice(offsets[i], offsets[i + 1])
            score = gaussian_log_prob_grad(mean, std, samples[:, cols])  # (batch, 2d)
            if config.baseline.tag is BaselineTag.NONE:
                baselines = np.zeros(batch)
            elif config.baseline.tag is BaselineTag.COMA:
                baselines = np.full(batch, j_val)
            else:
                # n_samples fresh own actions per batch row, the others held
                # fixed: one contiguous (batch, n_samples) plane per column
                z = z_bufs[i]
                rng.standard_normal(out=z)
                plane = np.empty((task.total_dim, batch, n_ob))
                for held in (slice(0, offsets[i]), slice(offsets[i + 1], None)):
                    plane[held] = samples.T[held, :, None]
                for j, c in enumerate(range(offsets[i], offsets[i + 1])):
                    np.multiply(std[j], z[..., j], out=plane[c])
                    plane[c] += mean[j]
                plane.flags.writeable = False
                # row r * n_samples + k is batch row r's k-th counterfactual
                joint = plane.reshape(task.total_dim, -1).T
                q_cf = _payoff_values(task, joint).reshape(batch, n_ob)
                actions = np.moveaxis(plane[cols], 0, -1)
                baselines = ob_surrogate_gaussian(actions, mean, std, q_cf)
            per_traj.append((q_vals - baselines)[:, None] * score)
        steps, grad_var, grad_norm = _batch_statistics(per_traj)
        grad_vars.append(grad_var)
        grad_norms.append(grad_norm)
        for i, ((mean, std), step) in enumerate(zip(params, steps)):
            d = task.dims[i]
            new_mean = mean + config.actor_lr * step[:d]
            new_std = np.maximum(std + config.actor_lr * step[d:], 1e-3)
            params[i] = (new_mean, new_std)
    history = TrainHistory(
        returns=tuple(returns),
        grad_variance=tuple(grad_vars),
        grad_norm=tuple(grad_norms),
        entropies=tuple(entropies),
    )
    return history, params
