"""The enumeration suites behind ``mapgvar verify``: the identities and
bounds of the analysis, checked on solved games.

``check_game`` runs all eight suites on one game and returns its checks;
``tally`` folds every game's checks into the report's suite entries;
``run_suites`` draws random games, checks them in as many processes as the
CPUs allow and returns the report ``verify`` writes.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .baselines import ob_surrogate_discrete
from .estimators import IDENTITY_TOL, agent_axis_view, agent_prob_table
from .games import random_game
from .policies import random_softmax_policy
from .processes import _in_processes
from .values import _check_lattice_size, advantage_decomposition
from .values import marginal_q_lattice, solve_values
from .variance import advantage_variance_bound, advantage_variance_identity
from .variance import baseline_excess_variance, excess_variance_bounds, gap_bounds
from .variance import expected_score_norm_sq, local_variance

SCHEMA_VERSION = 1

# suite -> (statistic, how the checks fold into it, its value before any check)
SUITES = {
    "advantage_decomposition": ("max_abs_error", max, 0.0),
    "advantage_variance_identity": ("max_abs_error", max, 0.0),
    "advantage_variance_bound": ("min_slack", min, math.inf),
    "centralized_gap_bound": ("min_slack", min, math.inf),
    "coma_gap_bound": ("min_slack", min, math.inf),
    "optimal_baseline_identity": ("max_abs_error", max, 0.0),
    "optimal_baseline_scan": ("min_margin", min, math.inf),
    "excess_variance_bounds": None,
}


def tally(found) -> dict:
    """The report's suite entries, in report order, from every game's checks
    (``check_game``'s dicts, in game order): each suite's checks, violations
    and statistic, None where it is infinite. No statistic is NaN, so the
    fold picks the element a per-check fold would, ties included."""
    suites = {}
    for name, stat in SUITES.items():
        checks = [check for game in found for check in game[name]]
        # a numpy comparison gives np.bool_, and a sum of those is no JSON int
        entry = {"checks": len(checks), "violations": sum(bool(v) for v, _ in checks)}
        if stat is not None:
            key, fold, start = stat
            value = fold([start, *(x for _, x in checks)])
            entry[key] = None if math.isinf(value) else value
        suites[name] = entry
    return suites


class _Shape(NamedTuple):
    """A game's sizes: all that ``random_softmax_policy`` and ``_check_draws``
    read of a game, so that run_suites can draw before it builds one."""

    n_states: int
    action_counts: tuple


def _check_draws(game, rng) -> tuple:
    """check_game's draws from ``rng``, which depend only on the game's
    sizes: one joint action per state, then one (state, other-agents' action
    row) cell per agent."""
    actions = [
        tuple(int(rng.integers(k)) for k in game.action_counts)
        for _ in range(game.n_states)
    ]
    n_joint = math.prod(game.action_counts)
    cells = [
        (int(rng.integers(0, game.n_states)), int(rng.integers(0, n_joint // k)))
        for k in game.action_counts
    ]
    return actions, cells


def check_game(game, policy, tables, rng, sabotage: bool = False) -> dict:
    """Every suite's (violated, statistic) checks on one game, a list per
    suite in report order.

    Draws from ``rng`` one joint action per state, then one state and one
    other-agents' action row per agent. ``sabotage`` corrupts the two
    identities' right-hand sides, so their suites must report violations.
    Each state's q tensor, probability rows and lattice serve every suite.
    """
    return _checks(game, policy, tables, _check_draws(game, rng), sabotage)


def _checks(game, policy, tables, drawn, sabotage: bool) -> dict:
    """Every suite's (violated, statistic) checks on one game, taking the
    joint actions and cells ``_check_draws`` drew."""
    state_actions, cells = drawn
    n = game.n_agents
    orders = list(itertools.permutations(range(n))) if n <= 4 else [tuple(range(n))]
    tol = IDENTITY_TOL
    found = {name: [] for name in SUITES}  # (violated, statistic) per check

    for s in range(game.n_states):
        marginals = marginal_q_lattice(game, policy, tables, s)
        q_s = marginals[tuple(range(n))]  # axes in ascending agent order
        probs = [policy.probs(i, s) for i in range(n)]
        actions = state_actions[s]
        for order in orders:
            acts = [actions[i] for i in order]
            for lhs, rhs in advantage_decomposition(
                game, marginals, order, acts, range(min(n, 2))
            ):
                if sabotage:
                    rhs = rhs + 1.0
                err = abs(lhs - rhs)
                found["advantage_decomposition"].append((err > tol, err))

        draws = [(np.transpose(q_s, o), [probs[i] for i in o]) for o in orders]
        if n >= 2:  # the conditional form: agent 0's action fixed to 0
            draws.append((q_s[0], probs[1:]))
        for j, (t, draw_probs) in enumerate(draws):
            lhs, rhs = advantage_variance_identity(t, draw_probs)
            if j == 0:  # the ascending order's draw is also the bound's
                bound_lhs, bound_rhs = advantage_variance_bound(t, draw_probs)
                slack = bound_rhs - bound_lhs
                found["advantage_variance_bound"].append((slack < -tol, slack))
            if sabotage:
                rhs = -rhs
            err = abs(lhs - rhs)
            found["advantage_variance_identity"].append((err > tol, err))

    for pair in gap_bounds(game, policy, tables, range(n)):
        for name, rep in zip(("centralized_gap_bound", "coma_gap_bound"), pair):
            slack = min(b - rep.lhs for b in rep.bounds)
            found[name].append((not rep.holds, slack))

    for agent in range(n):
        rows = agent_axis_view(game, tables.q, agent)
        pi_i = agent_prob_table(game, policy, agent)
        s, m = cells[agent]
        q_row = rows[s, m]
        pi_row = pi_i[s]
        b_star = ob_surrogate_discrete(q_row, pi_row)
        score_sq = expected_score_norm_sq(pi_row)
        # the variance at b* first, then at each b of the scan, in one product
        scan = np.linspace(b_star - 5.0, b_star + 5.0, 21)
        signals = q_row - np.r_[b_star, scan][:, None]
        base_var, *variances = local_variance(pi_row, signals).tolist()
        for b, var in zip(scan, variances):
            direct = var - base_var
            err = abs(direct - baseline_excess_variance(b, b_star, score_sq))
            found["optimal_baseline_identity"].append((err > tol, err))
            found["optimal_baseline_scan"].append((direct < -tol, direct))
        bounds = excess_variance_bounds(q_row, pi_row)
        found["excess_variance_bounds"].append((not bounds.holds, None))
    return found


def run_suites(n_games: int, n_agents: int, seed: int, sabotage: bool = False) -> dict:
    """Every suite over ``n_games`` random games of ``n_agents`` agents (1-3
    states, 2-3 actions each, a random softmax policy), as the JSON-ready
    report ``mapgvar verify`` writes, with an infinite statistic as None.

    Processes: the caller draws every game's sizes and seed, its policy and
    its check draws from one stream, game after game, and builds no game; a
    draw whose lattice exceeds the cap raises there, before any game is
    checked. Then each game is built, solved and checked as one
    ``_in_processes`` task, and ``tally`` folds the checks in game order.
    The report does not depend on the process count, and a failure raises
    the lowest-index failing game's exception, as one loop over the games
    would.
    """
    rng = np.random.default_rng(seed)
    plans = []
    for _ in range(n_games):
        n_states = int(rng.integers(1, 4))
        n_actions = int(rng.integers(2, 4))
        game_seed = int(rng.integers(0, 2**31 - 1))
        # refuse a lattice above the cap before building a game that large
        _check_lattice_size((n_actions,) * n_agents)
        # the draws read only the game's sizes; the game itself is built
        # where it is checked, so planning holds no game
        shape = _Shape(n_states, (n_actions,) * n_agents)
        policy = random_softmax_policy(shape, rng)
        game_args = (n_agents, n_states, n_actions, game_seed)
        plans.append((game_args, policy, _check_draws(shape, rng)))

    def check(plan) -> dict:
        game_args, policy, drawn = plan
        game = random_game(*game_args)
        return _checks(game, policy, solve_values(game, policy), drawn, sabotage)

    suites = tally(_in_processes(check, plans))
    total = sum(entry["violations"] for entry in suites.values())
    return {
        "schema_version": SCHEMA_VERSION,
        "games": n_games,
        "agents": n_agents,
        "seed": seed,
        "suites": suites,
        "total_violations": total,
        "ok": total == 0,
    }
