"""Exact and Monte-Carlo variance analysis of the gradient estimators.

The per-timestep variance of an estimator (total variance = sum over vector
components) splits across three sources:

  state   variance of the per-state mean contribution across the state
          distribution at time t,
  others  variance induced by the other agents' action draws,
  own     variance over the acting agent's own action — the only term a
          baseline can change.

Per-state moments are precomputed once per estimator so per-timestep figures
cost O(|S|) each; discounted aggregates sum gamma^{2t} Var_t with a
documented geometric tail bound. The identity and bound checks return both
sides and let callers assert, so a verification driver can count violations
without exceptions steering control flow.

Two distinct aggregate notions are reported and never conflated: the
discounted per-step sum above, and the raw variance of full trajectory-draw
gradients (mc_variance), which includes cross-timestep covariance.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .baselines import coma_baseline, ob_surrogate_discrete
from .estimators import (
    EstimatorKind,
    EstimatorTag,
    IDENTITY_TOL,
    _check_agent,
    add_block_signals,
    agent_axis_view,
    agent_prob_table,
    default_horizon,
    others_prob_table,
    param_dim,
    rollout,
    rollout_draws,
    signal_table,
    subtract_block_policy,
)
from .games import MarkovGame
from .policies import JointPolicy, score_geometry
from .processes import _in_processes
from .values import ValueTables, _contract, solve_values, state_distributions

SCHEMA_VERSION = 1

ALL_TAGS = (
    EstimatorTag.CENTRALIZED_VANILLA,
    EstimatorTag.DECENTRALIZED,
    EstimatorTag.COMA,
    EstimatorTag.OB_X,
)
_GAP_TAGS = ALL_TAGS[:3]  # the kinds the gap bounds compare


# ---------------------------------------------------------------------------
# per-state moments and per-timestep variances


@dataclass(frozen=True)
class StepMoments:
    """Per-state ingredients of the exact per-timestep variance, centered:
    with x = signal * score, nu = E_{a_i}[x] and nubar = E_{a_others}[nu],

    own[s]     = E_{a_others} E_{a_i} ||x - nu||^2 = E_{a_others}[ Var_{a_i} | s ]
    others[s]  = E_{a_others} ||nu - nubar||^2 = Var_{a_others}[ E_{a_i} | s ]
    mean_sq[s] = ||nubar||^2 = || E_a[ signal * score | s ] ||^2
    m2[s]      = own + others + mean_sq = E_a[ signal^2 ||score||^2 | s ]

    For a state distribution d the total variance at that step is
    d . (own + others) + d (1 - d) . mean_sq (contribution blocks of
    distinct states are disjoint, so the squared norm of the mean splits
    per state). Every term is a sum of non-negative products.
    """

    m2: np.ndarray
    mean_sq: np.ndarray
    own: np.ndarray
    others: np.ndarray


def _check_tables(game: MarkovGame, tables) -> None:
    shape = (game.n_states, game.n_joint_actions)
    if len(tables) == 0 or any(np.shape(t) != shape for t in tables):
        raise ValueError(f"need one or more signal tables of shape {shape}")


def step_moments(
    game: MarkovGame, policy: JointPolicy, agent: int, sigs
) -> list[StepMoments]:
    """The ``StepMoments`` of each of the agent's (S, A) signal tables
    ``sigs``, in order; the agent's probability tables and scores are built
    once."""
    _check_agent(game, agent)
    _check_tables(game, sigs)
    p_others = others_prob_table(game, policy, agent)  # (S, M)
    pi_i = agent_prob_table(game, policy, agent)  # (S, k)
    scores = score_geometry(pi_i)[0][:, None]  # (S, 1, k, k), row a is e_a - pi
    out = []
    for sig in sigs:
        x = agent_axis_view(game, sig, agent)[..., None] * scores  # (S, M, k, k)
        nu = np.einsum("sk,smkj->smj", pi_i, x)
        dev = x - nu[:, :, None, :]
        dev_sq = np.einsum("smkj,smkj->smk", dev, dev)
        own = np.einsum("sm,sk,smk->s", p_others, pi_i, dev_sq)
        nu_bar = np.einsum("sm,smj->sj", p_others, nu)
        spread = nu - nu_bar[:, None, :]
        others = np.einsum("sm,smj,smj->s", p_others, spread, spread)
        mean_sq = np.einsum("sj,sj->s", nu_bar, nu_bar)
        out.append(StepMoments(m2=own + others + mean_sq, mean_sq=mean_sq,
                               own=own, others=others))
    return out


def per_timestep_variances(moments: StepMoments, dists: np.ndarray) -> np.ndarray:
    """Exact total variance at each timestep for state distributions (T, S)."""
    return dists @ (moments.own + moments.others) + _state_terms(moments, dists)


def _state_terms(moments: StepMoments, dists: np.ndarray) -> np.ndarray:
    """sum_s d (1 - d) mean_sq at each timestep, the variance of the state's
    mean contribution; 1 - d is the other states' mass, never negative where
    a rounded d exceeds 1."""
    return (dists * (dists.sum(axis=-1, keepdims=True) - dists)) @ moments.mean_sq


def local_variance(pi_i, signal_rows):
    """Total variance over one agent's action of signal(a) * score(a), the
    softmax score from ``score_geometry``: a float for a (k,) signal row, an
    array for each row of a (B, k) stack. Centered, sum_a pi_a ||v_a - vbar||^2
    with v_a = signal(a) * score(a), so it is never negative; elementwise
    products and axis sums, so a stack's rows equal single rows bit for bit."""
    pi_i = np.asarray(pi_i, dtype=float)
    rows = np.asarray(signal_rows, dtype=float)
    if pi_i.ndim != 1 or rows.ndim > 2 or rows.shape[-1:] != pi_i.shape:
        raise ValueError("pi_i and signal_rows must agree on length")
    v = np.atleast_2d(rows)[:, :, None] * score_geometry(pi_i)[0]  # (B, k, k)
    dev = v - (pi_i[:, None] * v).sum(axis=-2)[:, None, :]
    out = (pi_i * (dev * dev).sum(axis=-1)).sum(axis=-1)
    return float(out[0]) if rows.ndim == 1 else out


# ---------------------------------------------------------------------------
# advantage-variance identity and bound over one joint draw


def _check_draw(t, probs) -> None:
    """Refuse a q tensor whose axes do not match the probability rows."""
    lengths = tuple(map(len, probs))
    if np.shape(t) != lengths:
        raise ValueError(
            f"q tensor of shape {np.shape(t)} does not match probability rows "
            f"of lengths {lengths}"
        )


def advantage_variance_identity(t, probs) -> tuple[float, float]:
    """Joint-advantage variance vs. its chained per-agent form; returns (lhs, rhs).

    ``t`` is the q tensor of the drawn agents at one state (any other agents'
    actions fixed), its axes following the probability rows ``probs``, one
    row per axis. lhs is the variance of t under the agents' joint draw. rhs
    peels the agents off in axis order: each term is the expected own-action
    variance of that agent's advantage conditioned on the earlier agents'
    draws. The two are equal for every ordering of the axes; a tensor with
    some agents' actions fixed gives the conditional version of the identity.
    """
    _check_draw(t, probs)
    # partials[j] is t with the agents after axis j integrated out; built
    # from the back, each contraction runs once
    partials = [t]
    for r in range(len(probs) - 1, 0, -1):
        partials.append(_contract(partials[-1], probs[r], r))
    partials.reverse()
    rhs = 0.0
    w = np.ones(())  # the weights of the axes before j
    for j, (partial, p) in enumerate(zip(partials, probs)):
        # weighted variance along axis j, then expectation over the earlier axes
        e1 = _contract(partial, p, j)
        e2 = _contract(partial**2, p, j)
        rhs += float((w * (e2 - e1**2)).sum())
        w = np.multiply.outer(w, p)
    mean = float((w * t).sum())
    lhs = float((w * t**2).sum()) - mean**2
    return lhs, rhs


def advantage_variance_bound(t, probs) -> tuple[float, float]:
    """Joint-advantage variance vs. the independent-row sum; returns (lhs, rhs).

    Takes the draw of ``advantage_variance_identity`` and returns the same
    lhs, bit for bit. rhs sums, per axis, the variance (over the full joint
    draw) of that agent's advantage given everyone else's sampled actions;
    the sum takes every axis, so no order enters it. lhs <= rhs always; the
    caller asserts the slack.
    """
    _check_draw(t, probs)
    w = np.ones(())
    for p in probs:
        w = np.multiply.outer(w, p)
    mean = float((w * t).sum())
    lhs = float((w * t**2).sum()) - mean**2
    rhs = 0.0
    for j, p in enumerate(probs):
        adv = t - np.expand_dims(_contract(t, p, j), axis=j)
        m1 = float((w * adv).sum())
        rhs += float((w * adv**2).sum()) - m1**2
    return lhs, rhs


# ---------------------------------------------------------------------------
# bound constants and the estimator-gap bounds


@dataclass(frozen=True)
class BoundConstants:
    """Exact suprema over the finite spaces.

    score_norm_max[i]   max over (s, a^i) of ||score of agent i||
    adv_abs_max[i]      max over (s, a_others, a^i) of |local advantage|
    adv_abs_max_overall max_i adv_abs_max[i]
    """

    score_norm_max: np.ndarray
    adv_abs_max: np.ndarray
    adv_abs_max_overall: float


def _coma_tables(game: MarkovGame, policy: JointPolicy, tables: ValueTables) -> list:
    """Each agent's COMA signal table, its local advantage A^i(s, a)."""
    coma = (EstimatorKind(EstimatorTag.COMA, i) for i in range(game.n_agents))
    return [signal_table(kind, game, policy, tables.q) for kind in coma]


def bound_constants(
    game: MarkovGame, policy: JointPolicy, coma_tables
) -> BoundConstants:
    """The constants from ``coma_tables``, each agent's (S, A) COMA signal
    table in agent order (see ``_coma_tables``)."""
    if len(coma_tables) != game.n_agents:
        raise ValueError(f"need one COMA table per agent, {game.n_agents} in all")
    _check_tables(game, coma_tables)
    score = np.empty(game.n_agents)
    adv = np.empty(game.n_agents)
    for i, local_adv in enumerate(coma_tables):
        norm_sq = score_geometry(agent_prob_table(game, policy, i))[1]
        score[i] = math.sqrt(float(norm_sq.max()))
        adv[i] = float(np.abs(local_adv).max())
    return BoundConstants(
        score_norm_max=score,
        adv_abs_max=adv,
        adv_abs_max_overall=float(adv.max()),
    )


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    bounds: tuple[float, ...]
    constants: BoundConstants
    horizon: int
    truncation_error: float
    holds: bool


def _gap_horizon(gamma: float, tail_scale: float) -> int:
    if gamma == 0.0 or tail_scale <= 0.0:
        return 1
    h = math.ceil(
        math.log(IDENTITY_TOL * (1.0 - gamma**2) / tail_scale) / (2.0 * math.log(gamma))
    )
    return max(1, h)


def _tail_bound(gamma: float, tail_scale: float, horizon: int) -> float:
    """sum over t >= horizon of gamma^{2t} tail_scale."""
    return gamma ** (2 * horizon) * tail_scale / (1.0 - gamma**2)


class _GapSpec(NamedTuple):
    tag: EstimatorTag  # the kind compared with DECENTRALIZED
    bounds: tuple[float, ...]
    tail_scale: float
    horizon: int


def _gap_specs(
    game: MarkovGame, consts: BoundConstants, agent: int
) -> tuple[_GapSpec, _GapSpec]:
    """The agent's centralized and COMA gaps; see ``centralized_gap_bound``
    and ``coma_gap_bound``."""
    inv = 1.0 / (1.0 - game.gamma**2)
    others_sq = float(np.sum(np.delete(consts.adv_abs_max, agent) ** 2))
    b_i = float(consts.score_norm_max[agent])
    eps_i = float(consts.adv_abs_max[agent])
    q_scale = game.beta / (1.0 - game.gamma)
    rhs1 = b_i**2 * inv * others_sq
    rhs2 = (game.n_agents - 1) * (consts.adv_abs_max_overall * b_i) ** 2 * inv
    centralized = (EstimatorTag.CENTRALIZED_VANILLA, (rhs1, rhs2), b_i**2 * others_sq)
    coma_scale = b_i**2 * max(eps_i, q_scale) ** 2
    coma = (EstimatorTag.COMA, ((eps_i * b_i) ** 2 * inv,), coma_scale)
    return tuple(
        _GapSpec(tag, bounds, scale, _gap_horizon(game.gamma, scale))
        for tag, bounds, scale in (centralized, coma)
    )


def _agent_signals(game, policy, tables, coma_tables, agent, tags) -> list:
    """The agent's (S, A) signal table for each of ``tags``, the COMA one
    being its ``_coma_tables`` entry. The first tag is not COMA, so its
    ``signal_table`` checks the agent before ``coma_tables`` is indexed by it."""
    return [
        coma_tables[agent] if tag is EstimatorTag.COMA
        else signal_table(EstimatorKind(tag, agent), game, policy, tables.q)
        for tag in tags
    ]


def _gap_reports(game, consts, specs, moments, dists, weights) -> tuple:
    """One agent's (centralized, COMA) reports from its ``_gap_specs``, its
    step moments by tag, and the state distributions and gamma^{2t} weights,
    each at least as long as the longest spec horizon; each bound reads a
    prefix of them (row t depends only on the rows before it)."""
    reports = []
    for spec in specs:
        # sum_t gamma^{2t} (Var_t[kind] - Var_t[decentralized]) over the horizon
        d = dists[: spec.horizon]
        var_a = per_timestep_variances(moments[spec.tag], d)
        var_b = per_timestep_variances(moments[EstimatorTag.DECENTRALIZED], d)
        lhs = float(weights[: spec.horizon] @ (var_a - var_b))
        # the chain lhs <= bounds[0] <= bounds[1] <= ... within IDENTITY_TOL
        chain = (lhs, *spec.bounds)
        holds = all(a <= b + IDENTITY_TOL for a, b in zip(chain, chain[1:]))
        tail = _tail_bound(game.gamma, spec.tail_scale, spec.horizon)
        reports.append(BoundReport(lhs, spec.bounds, consts, spec.horizon, tail, holds))
    return tuple(reports)


def gap_bounds(
    game: MarkovGame,
    policy: JointPolicy,
    tables: ValueTables,
    agents,
) -> list[tuple[BoundReport, BoundReport]]:
    """The (centralized, COMA) gap reports of each agent in ``agents``.

    Every input is computed once: each agent's COMA signal table, serving
    both ``bound_constants`` and the COMA step moments; one
    ``state_distributions`` run and one row of gamma^{2t} weights to the
    longest horizon; and per agent one ``step_moments`` call for the three
    kinds, the DECENTRALIZED moments serving both bounds.
    """
    coma_tables = _coma_tables(game, policy, tables)
    consts = bound_constants(game, policy, coma_tables)
    specs = {agent: _gap_specs(game, consts, agent) for agent in agents}
    longest = max(spec.horizon for pair in specs.values() for spec in pair)
    dists = state_distributions(game, policy, longest - 1)
    weights = game.gamma ** (2.0 * np.arange(longest))
    out = []
    for agent, pair in specs.items():
        sigs = _agent_signals(game, policy, tables, coma_tables, agent, _GAP_TAGS)
        moments = dict(zip(_GAP_TAGS, step_moments(game, policy, agent, sigs)))
        out.append(_gap_reports(game, consts, pair, moments, dists, weights))
    return out


def centralized_gap_bound(
    game: MarkovGame,
    policy: JointPolicy,
    agent: int,
) -> BoundReport:
    """Discounted excess variance of the centralized estimator over the
    decentralized one, against its two closed-form bounds.

    lhs = sum_t gamma^{2t} (Var_t[centralized] - Var_t[decentralized])
    bound 1: B_i^2 / (1 - gamma^2) * sum_{j != i} eps_j^2
    bound 2: (n-1) (eps B_i)^2 / (1 - gamma^2)

    where B_i is the agent's max score norm and eps_j the max absolute local
    advantage. The per-step gap is non-negative and at most the bound-1
    numerator, which gives the documented truncation tail.
    """
    return gap_bounds(game, policy, solve_values(game, policy), (agent,))[0][0]


def coma_gap_bound(
    game: MarkovGame,
    policy: JointPolicy,
    agent: int,
) -> BoundReport:
    """Discounted excess variance of the counterfactual-baseline estimator
    over the decentralized one: lhs <= (eps_i B_i)^2 / (1 - gamma^2).

    The per-step gap may be negative, so the truncation tail uses
    B_i^2 max(eps_i, beta/(1-gamma))^2, which dominates either per-step
    variance.
    """
    return gap_bounds(game, policy, solve_values(game, policy), (agent,))[0][1]


# ---------------------------------------------------------------------------
# excess variance of a suboptimal baseline


def expected_score_norm_sq(pi_i) -> float:
    """E_{a~pi}[||score(a)||^2], which equals 1 - ||pi||^2 for softmax."""
    return float(score_geometry(pi_i)[2])


def baseline_excess_variance(b: float, b_star: float, score_norm_sq: float) -> float:
    """Variance penalty of baseline b over the optimum b* on one Q-row, from
    the row's b* and E_pi[||score||^2] (``expected_score_norm_sq``): the closed
    form (b - b*)^2 E_pi[||score||^2], which equals the direct difference
    local_variance(q - b) - local_variance(q - b*)."""
    return (float(b) - b_star) ** 2 * score_norm_sq


@dataclass(frozen=True)
class ExcessVarianceBounds:
    delta_vanilla: float
    delta_coma: float
    bound_vanilla: float
    bound_coma: float
    bound_coma_const: float
    score_norm_max: float
    holds: bool


def excess_variance_bounds(q_row, pi_i) -> ExcessVarianceBounds:
    """Closed-form penalties of the zero and counterfactual baselines with
    their upper bounds on one Q-row.

    delta_vanilla <= D^2 (Var[A] + Qbar^2) and
    delta_coma    <= D^2 Var[A] <= (eps D)^2,
    with D the max score norm on the row, A = Q - Qbar the local advantage,
    Qbar its policy mean, and eps = max |A|.
    """
    q_row = np.asarray(q_row, dtype=float)
    pi_i = np.asarray(pi_i, dtype=float)
    q_bar = coma_baseline(q_row, pi_i)
    b_star = ob_surrogate_discrete(q_row, pi_i)
    _, norm_sq, gap = score_geometry(pi_i)
    score_sq = float(gap)  # expected_score_norm_sq
    delta_vanilla = baseline_excess_variance(0.0, b_star, score_sq)
    delta_coma = baseline_excess_variance(q_bar, b_star, score_sq)
    d_max = math.sqrt(float(norm_sq.max()))
    adv = q_row - q_bar
    var_adv = float(pi_i @ adv**2)
    eps = float(np.abs(adv).max())
    bound_vanilla = d_max**2 * (var_adv + q_bar**2)
    bound_coma = d_max**2 * var_adv
    bound_coma_const = (eps * d_max) ** 2
    holds = (
        delta_vanilla <= bound_vanilla + IDENTITY_TOL
        and delta_coma <= bound_coma + IDENTITY_TOL
        and bound_coma <= bound_coma_const + IDENTITY_TOL
    )
    return ExcessVarianceBounds(
        delta_vanilla=delta_vanilla,
        delta_coma=delta_coma,
        bound_vanilla=bound_vanilla,
        bound_coma=bound_coma,
        bound_coma_const=bound_coma_const,
        score_norm_max=d_max,
        holds=holds,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo estimator variance over trajectory draws


# Trajectories per rollout pass of mc_variance: a pass holds one kind's
# (min(n, MC_CHUNK), dim) trajectory rows beside its (dim, dim) sum.
MC_CHUNK = 1 << 16


def mc_variance(
    game: MarkovGame, policy: JointPolicy, agent: int, sigs, n_trajectories: int,
    horizon: int, rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """Sample variance of trajectory-gradient draws, with its standard
    error, for each of the agent's (S, A) signal tables ``sigs`` (one per
    estimator kind), in their order.

    Unlike the discounted per-step sum, this is the raw variance of full
    trajectory draws and includes cross-timestep covariance. Each kind
    samples ``n_trajectories`` trajectories in chunks of MC_CHUNK and sums
    their moments; the SE comes from the sample variance of the squared
    deviations (delta method). The estimate does not depend on the chunking
    beyond rounding, but its bits do, since the chunk boundaries fix the
    order of the sums.

    RNG contract: the result, and ``rng``'s state afterwards, are those of
    one single-kind call per kind, made in order on the same ``rng``; kind j
    draws the ``rollout_draws`` stretch that follows kind j - 1's.

    Processes: for a PCG64 or PCG64DXSM generator, kind j draws from a copy
    of ``rng`` advanced to its stretch (``_split``; ``rng`` then skips every
    kind's draws) and the kinds are ``_in_processes`` tasks. Any other
    generator cannot be advanced so, and its kinds run here in order on
    ``rng`` itself. Neither the results nor ``rng``'s end state depend on
    the process count.
    """
    if n_trajectories < 2:
        raise ValueError("need at least 2 trajectories")
    _check_agent(game, agent)
    _check_tables(game, sigs)
    pi_tables = [agent_prob_table(game, policy, j) for j in range(game.n_agents)]

    def estimate(sig, draws_from):
        return _kind_estimate(game, pi_tables, agent, sig, n_trajectories, horizon,
                              draws_from)

    # PCG64's and PCG64DXSM's advance(d) skips exactly d doubles of random();
    # Philox's counts blocks of four draws, and MT19937 and SFC64 have none
    if not isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        return [estimate(sig, rng) for sig in sigs]
    copies = _split(rng, rollout_draws(game.n_agents, n_trajectories, horizon), len(sigs))
    return _in_processes(lambda j: estimate(sigs[j], copies[j]), range(len(sigs)))


def _kind_estimate(
    game, pi_tables, agent, sig, n_trajectories, horizon, rng
) -> tuple[float, float]:
    """mc_variance's (estimate, se) for one kind's (S, A) signal table
    ``sig``, drawing from ``rng``: one rollout pass per chunk."""
    n_states, n_joint = game.n_states, game.n_joint_actions
    flat_sig = np.ravel(sig)
    dim = param_dim(game, agent)
    # gamma^t rounded as a running product, step by step, as a column
    discounts = np.cumprod(np.r_[1.0, np.full(horizon, game.gamma)])[:, None]
    s1, c_vec, p_mat = np.zeros(dim), np.zeros(dim), np.zeros((dim, dim))
    q1 = q2 = 0.0
    remaining = n_trajectories
    while remaining > 0:
        m = min(MC_CHUNK, remaining)
        remaining -= m
        # block = trajectory * S + state; (1, m), broadcast over a block's steps
        row_blocks = np.arange(m)[None] * n_states
        flat, totals = np.zeros(m * dim), np.zeros((m, n_states))
        t = 0
        for s, actions, a_idx, _ in rollout(game, pi_tables, m, horizon, rng):
            val = discounts[t : t + len(s)] * np.take(flat_sig, s * n_joint + a_idx)
            add_block_signals(flat, totals.reshape(-1), row_blocks + s, actions[agent],
                              val)
            t += len(s)
        subtract_block_policy(flat.reshape(m, n_states, -1), totals, pi_tables[agent])
        rows = flat.reshape(m, dim)
        norm_sq = np.einsum("md,md->m", rows, rows)
        s1 += rows.sum(axis=0)
        q1 += float(norm_sq.sum())
        q2 += float(norm_sq @ norm_sq)
        c_vec += rows.T @ norm_sq
        p_mat += rows.T @ rows
    return _mc_estimate(n_trajectories, s1, q1, q2, c_vec, p_mat)


def _split(rng: np.random.Generator, draws: int, parts: int) -> list:
    """``parts`` copies of ``rng``, copy j advanced by j * ``draws`` doubles;
    ``rng`` itself skips all parts * draws. ``advance`` also drops a buffered
    32-bit half-draw, which drawing doubles keeps, so ``rng`` gets it back."""
    state = rng.bit_generator.state
    copies = [copy.deepcopy(rng) for _ in range(parts)]
    for j, part in enumerate(copies):
        part.bit_generator.advance(j * draws)
    rng.bit_generator.advance(parts * draws)
    buffered = {key: state[key] for key in ("has_uint32", "uinteger")}
    rng.bit_generator.state = {**rng.bit_generator.state, **buffered}
    return copies


def _mc_estimate(n, s1, q1, q2, c_vec, p_mat) -> tuple[float, float]:
    """Sample variance and its SE from n trajectory gradients' moment sums."""
    mean = s1 / n
    mean_sq = float(mean @ mean)
    sum_w = q1 - n * mean_sq  # sum of ||g - mean||^2
    estimate = sum_w / (n - 1)
    sum_w2 = (
        q2
        + 4.0 * float(mean @ p_mat @ mean)
        - 4.0 * float(c_vec @ mean)
        + 2.0 * mean_sq * q1
        - 3.0 * n * mean_sq**2
    )
    var_w = max(sum_w2 / n - (sum_w / n) ** 2, 0.0)
    se = math.sqrt(var_w / n)
    return float(estimate), float(se)


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class VarianceReport:
    """All exact figures for one (game, policy, agent) plus optional MC rows."""

    agent: int
    t_max: int
    per_t: dict  # tag -> {"variance": arr, "state": arr, "others": arr, "own": arr}
    discounted_per_step_sum: dict  # tag -> float
    aggregate_horizon: int
    aggregate_tail_bound: float
    constants: BoundConstants
    centralized_gap: BoundReport
    coma_gap: BoundReport
    mc: dict = field(default_factory=dict)  # tag -> {"n", "horizon", "estimate", "se"}
    schema_version: int = SCHEMA_VERSION

    CSV_HEADER = ("kind", "t", "term", "value")

    def to_csv_rows(self) -> list[tuple]:
        rows = [("schema_version", -1, "value", float(self.schema_version))]
        for tag, terms in sorted(self.per_t.items()):
            for term in ("variance", "state", "others", "own"):
                for t, value in enumerate(terms[term]):
                    rows.append((tag, t, term, float(value)))
        for tag, value in sorted(self.discounted_per_step_sum.items()):
            rows.append((tag, -1, "discounted_per_step_sum", float(value)))
        for tag, entry in sorted(self.mc.items()):
            rows.append((tag, -1, "trajectory_draw_variance", float(entry["estimate"])))
            rows.append((tag, -1, "trajectory_draw_se", float(entry["se"])))
        return rows

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "agent": self.agent,
            "t_max": self.t_max,
            "per_timestep": {
                tag: {term: list(map(float, arr)) for term, arr in terms.items()}
                for tag, terms in sorted(self.per_t.items())
            },
            "discounted_per_step_sum": {
                tag: float(v)
                for tag, v in sorted(self.discounted_per_step_sum.items())
            },
            "aggregate_horizon": self.aggregate_horizon,
            "aggregate_tail_bound": self.aggregate_tail_bound,
            "bound_constants": {
                "score_norm_max": list(map(float, self.constants.score_norm_max)),
                "adv_abs_max": list(map(float, self.constants.adv_abs_max)),
                "adv_abs_max_overall": self.constants.adv_abs_max_overall,
            },
            "centralized_gap": _bound_report_dict(self.centralized_gap),
            "coma_gap": _bound_report_dict(self.coma_gap),
            "monte_carlo": {
                tag: {
                    "n": entry["n"],
                    "horizon": entry["horizon"],
                    "trajectory_draw_variance": float(entry["estimate"]),
                    "standard_error": float(entry["se"]),
                }
                for tag, entry in sorted(self.mc.items())
            },
        }


def _bound_report_dict(report: BoundReport) -> dict:
    return {
        "lhs": report.lhs,
        "bounds": list(report.bounds),
        "horizon": report.horizon,
        "truncation_error": report.truncation_error,
        "holds": report.holds,
    }


def build_variance_report(
    game: MarkovGame,
    policy: JointPolicy,
    agent: int,
    t_max: int = 20,
    mc_trajectories: int = 0,
    rng: np.random.Generator | None = None,
) -> VarianceReport:
    tables = solve_values(game, policy)
    coma_tables = _coma_tables(game, policy, tables)
    sigs = _agent_signals(game, policy, tables, coma_tables, agent, ALL_TAGS)
    moments = dict(zip(ALL_TAGS, step_moments(game, policy, agent, sigs)))
    tail_scale = max(float(m.m2.max()) for m in moments.values())
    agg_horizon = _gap_horizon(game.gamma, tail_scale)
    consts = bound_constants(game, policy, coma_tables)
    specs = _gap_specs(game, consts, agent)
    # one state-distribution table, as long as the longest read below; each
    # product runs on the rows a table of its own would hold (the per-t
    # variances on max(t_max, agg_horizon - 1) + 1, each gap on its horizon)
    longest = max(agg_horizon, *(spec.horizon for spec in specs))
    dists = state_distributions(game, policy, max(t_max, longest - 1))
    weights = game.gamma ** (2.0 * np.arange(longest))
    var_rows = dists[: max(t_max, agg_horizon - 1) + 1]
    d = dists[: t_max + 1]
    per_t = {}
    aggregates = {}
    for tag, m in moments.items():
        var_all = per_timestep_variances(m, var_rows)
        per_t[tag.value] = {
            "variance": var_all[: t_max + 1],
            "state": _state_terms(m, d),
            "others": d @ m.others,
            "own": d @ m.own,
        }
        aggregates[tag.value] = float(weights[:agg_horizon] @ var_all[:agg_horizon])
    centralized_gap, coma_gap = _gap_reports(
        game, consts, specs, moments, dists, weights
    )
    report = VarianceReport(
        agent=agent,
        t_max=t_max,
        per_t=per_t,
        discounted_per_step_sum=aggregates,
        aggregate_horizon=agg_horizon,
        aggregate_tail_bound=_tail_bound(game.gamma, tail_scale, agg_horizon),
        constants=consts,
        centralized_gap=centralized_gap,
        coma_gap=coma_gap,
    )
    if mc_trajectories > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        horizon = min(default_horizon(game.gamma, game.beta), 200)
        estimates = mc_variance(
            game, policy, agent, sigs, mc_trajectories, horizon, rng
        )
        for tag, (estimate, se) in zip(ALL_TAGS, estimates):
            report.mc[tag.value] = dict(
                n=mc_trajectories, horizon=horizon, estimate=estimate, se=se
            )
    return report
