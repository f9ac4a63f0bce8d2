"""Acceptance gate: one test per criterion, one printed line each.

Run with `pytest -sv tests/test_acceptance.py` to see the per-criterion
lines; every line's claim is also asserted, so regressions fail loudly.

Two reference figures from the worked example are unattainable from its own
stated inputs (an arithmetic slip in the published counterfactual-baseline
variance, and a third-decimal mismatch in the replayed optimal-baseline
variance); those two sub-checks are strict xfails with the honest values
asserted elsewhere, and the discrepancy is documented in the toy report
itself.
"""
import itertools
import json
import os
import time

import numpy as np
import pytest
from conftest import one_step_game
from oracles import compare_baselines, expected_per_step_gradient, fd_policy_gradient
from oracles import gaussian_log_prob
from oracles import bound_of, identity_of, mc_of, moments_of, sampled_ob_gaussian

from mapgvar import (
    BaselineKind,
    BaselineTag,
    EstimatorKind,
    EstimatorTag,
    TrainConfig,
    baseline_excess_variance,
    centralized_gap_bound,
    coma_gap_bound,
    exact_policy_gradient,
    excess_variance_bounds,
    expected_score_norm_sq,
    gaussian_log_prob_grad,
    local_variance,
    ob_surrogate_discrete,
    per_timestep_variances,
    run_toy,
    softmax_probs,
    solve_values,
    state_distributions,
    toy_game,
    toy_policy,
)
from mapgvar.cli import main
from mapgvar.variance import ALL_TAGS
from mapgvar.verify import SUITES, check_game, tally


def _line(n, detail):
    print(f"CRITERION {n}: PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. worked-example goldens


def test_criterion_01_toy_goldens():
    t0 = time.perf_counter()
    report = run_toy()
    elapsed = time.perf_counter() - t0

    np.testing.assert_allclose(report.pi, [0.8, 0.1, 0.1], atol=1e-15)
    np.testing.assert_allclose(
        report.x, [0.1412, 0.4294, 0.4294], atol=0.005
    )
    assert abs(report.coma_b - 11.7) <= 1e-9
    np.testing.assert_allclose(
        report.advantage, [-9.7, -10.7, 88.3], atol=1e-9
    )
    # the published optimal baseline and shifted signals come from the
    # 2-d.p.-rounded weight column; replaying that pipeline is bit-exact
    assert abs(report.b_star_rounded - 43.71) <= 0.01
    assert f"{report.b_star_rounded:.2f}" == "43.71"
    np.testing.assert_allclose(
        report.x_values_rounded, [-41.71, -42.71, 56.29], atol=0.01
    )
    for v, expect in zip(report.x_values_rounded, ("-41.71", "-42.71", "56.29")):
        assert f"{float(v):.2f}" == expect
    assert abs(report.variances["none"] - 1321.007) <= 0.5
    assert f"{report.variances['none']:.3f}" == "1321.007"
    assert abs(report.variances["ob"] - 673.116) <= 0.5
    # the two routes to every variance agree exactly
    for name in ("none", "coma", "ob"):
        assert abs(report.variances[name] - report.variances_direct[name]) <= 1e-9
    assert report.passed
    assert elapsed < 1.0
    _line(1, f"toy goldens reproduced in {elapsed * 1000:.0f} ms")


@pytest.mark.xfail(
    strict=True,
    reason="published counterfactual-baseline variance 1015.247 drops 5.000 in "
    "one inner term (prints 2.327 where its own expression gives 7.32736); "
    "the exact figure from the stated inputs is 1020.246",
)
def test_criterion_01_reference_coma_variance_band():
    report = run_toy()
    assert abs(report.variances["coma"] - 1015.247) <= 0.5


@pytest.mark.xfail(
    strict=True,
    reason="replaying the 2-d.p. pipeline for the optimal-baseline variance "
    "gives 673.111; the published 673.116 is reachable only through "
    "hand-rounded intermediate sums",
)
def test_criterion_01_reference_ob_replay_string():
    report = run_toy()
    assert f"{report.ob_replay_variance:.3f}" == "673.116"


# ---------------------------------------------------------------------------
# 2. every verify suite, on the shared corpus (2-4 agents, all orders)


def test_criterion_02_decomposition(corpus200):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    tallies = tally(
        [check_game(game, policy, tables, rng) for game, policy, tables in corpus200]
    )
    elapsed = time.perf_counter() - t0
    violations = {name: entry["violations"] for name, entry in tallies.items()}
    assert violations == dict.fromkeys(SUITES, 0)
    decomposition = tallies["advantage_decomposition"]
    assert decomposition["max_abs_error"] < 1e-9, decomposition
    assert elapsed < 60.0
    _line(
        2,
        f"{sum(entry['checks'] for entry in tallies.values())} checks in "
        f"{len(SUITES)} verify suites on 200 games, none violated; "
        f"{decomposition['checks']} decomposition checks (all states, all "
        f"orders, with and without prefix), max |lhs-rhs| = "
        f"{decomposition['max_abs_error']:.2e}, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 3. variance chain identity, all orders, with prefixes


def test_criterion_03_variance_identity(corpus200):
    rng = np.random.default_rng(3)
    checks = 0
    worst = 0.0
    for game, policy, tables in corpus200:
        n = game.n_agents
        for s in range(game.n_states):
            for order in itertools.permutations(range(n)):
                lhs, rhs = identity_of(game, policy, tables, s, order=order)
                worst = max(worst, abs(lhs - rhs))
                checks += 1
            # conditional (strong) version with a fixed prefix action
            p_agent = int(rng.integers(n))
            p_action = int(rng.integers(game.action_counts[p_agent]))
            order = tuple(j for j in range(n) if j != p_agent)
            lhs, rhs = identity_of(
                game, policy, tables, s, order=order,
                prefix=((p_agent, p_action),),
            )
            worst = max(worst, abs(lhs - rhs))
            checks += 1
    assert worst < 1e-9, worst
    _line(3, f"{checks} identity checks on 200 games, max |lhs-rhs| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. variance upper bound


def test_criterion_04_variance_bound(corpus500):
    rng = np.random.default_rng(4)
    checks = 0
    min_slack = np.inf
    for game, policy, tables in corpus500:
        n = game.n_agents
        for s in range(game.n_states):
            lhs, rhs = bound_of(game, policy, tables, s)
            min_slack = min(min_slack, rhs - lhs)
            checks += 1
        p_agent = int(rng.integers(n))
        p_action = int(rng.integers(game.action_counts[p_agent]))
        lhs, rhs = bound_of(game, policy, tables, 0, prefix=((p_agent, p_action),))
        min_slack = min(min_slack, rhs - lhs)
        checks += 1
    assert min_slack >= -1e-9, min_slack
    _line(
        4,
        f"{checks} bound checks on 500 games (incl. conditional version), "
        f"min slack = {min_slack:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. centralized-vs-decentralized gap bound chain


def test_criterion_05_centralized_gap(corpus200):
    checks = 0
    worst_trunc = 0.0
    for game, policy, _ in corpus200:
        for i in range(game.n_agents):
            report = centralized_gap_bound(game, policy, i)
            assert report.holds, (i, report)
            assert report.lhs <= report.bounds[0] + 1e-9
            assert report.bounds[0] <= report.bounds[1] + 1e-9
            worst_trunc = max(worst_trunc, report.truncation_error)
            checks += 1
    assert worst_trunc < 1e-9
    _line(
        5,
        f"{checks} gap-bound chains on 200 games hold; "
        f"documented truncation error <= {worst_trunc:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. counterfactual-baseline gap bound


def test_criterion_06_coma_gap(corpus200):
    checks = 0
    worst_trunc = 0.0
    for game, policy, _ in corpus200:
        for i in range(game.n_agents):
            report = coma_gap_bound(game, policy, i)
            assert report.holds, (i, report)
            worst_trunc = max(worst_trunc, report.truncation_error)
            checks += 1
    assert worst_trunc < 1e-9
    _line(6, f"{checks} gap bounds on 200 games hold")


# ---------------------------------------------------------------------------
# 7. optimality of the baseline, by scanning


def test_criterion_07_optimal_baseline_scan():
    rng = np.random.default_rng(7)
    worst_identity = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        pi = softmax_probs(rng.normal(size=k) * 1.5)
        q = rng.uniform(-20, 20, size=k)
        b_star = ob_surrogate_discrete(q, pi)
        score_sq = expected_score_norm_sq(pi)
        base = local_variance(pi, q - b_star)
        for b in b_star + np.linspace(-5.0, 5.0, 100):
            direct = local_variance(pi, q - b) - base
            closed = baseline_excess_variance(float(b), b_star, score_sq)
            worst_identity = max(worst_identity, abs(direct - closed))
            assert direct >= -1e-9
            if abs(b - b_star) > 1e-8:
                assert direct > 0.0  # optimum is unique
    assert worst_identity < 1e-9
    _line(
        7,
        "1000 rows x 100 scanned baselines: optimum never beaten, equality "
        f"only at b*, closed form matches direct to {worst_identity:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. excess-variance upper bounds


def test_criterion_08_excess_variance_bounds():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        pi = softmax_probs(rng.normal(size=k) * 1.5)
        q = rng.uniform(-20, 20, size=k)
        out = excess_variance_bounds(q, pi)
        assert out.holds
    _line(8, "both penalty bounds hold on 1000 random instances")


# ---------------------------------------------------------------------------
# 9. unbiasedness and the exact gradient


def test_criterion_09_unbiasedness(corpus100):
    worst = 0.0
    for game, policy, tables in corpus100:
        dists = state_distributions(game, policy, 1)
        for i in range(game.n_agents):
            per_state = []
            for tag in ALL_TAGS:
                kind = EstimatorKind(tag, i)
                vecs = [
                    expected_per_step_gradient(kind, game, policy, tables, s)
                    for s in range(game.n_states)
                ]
                per_state.append(vecs)
            for vecs in per_state[1:]:
                for s in range(game.n_states):
                    worst = max(
                        worst, float(np.abs(vecs[s] - per_state[0][s]).max())
                    )
            # timestep mixtures inherit the per-state equality
            for t in (0, 1):
                mixed = [
                    sum(dists[t][s] * vecs[s] for s in range(game.n_states))
                    for vecs in per_state
                ]
                for m in mixed[1:]:
                    worst = max(worst, float(np.abs(m - mixed[0]).max()))
    assert worst < 1e-9, worst
    _line(
        9,
        "all four estimator kinds share the enumerated expectation per "
        f"state/timestep on 100 games (max gap {worst:.2e})",
    )


def test_criterion_09_gradient_vs_finite_differences(corpus500):
    worst = 0.0
    for game, policy, tables in corpus500[:50]:
        grad = exact_policy_gradient(game, policy, tables, 0)
        fd = fd_policy_gradient(game, policy, 0)
        scale = max(1.0, float(np.abs(fd).max()))
        worst = max(worst, float(np.abs(grad - fd).max()) / scale)
    assert worst < 1e-5, worst
    _line(9, f"exact gradient vs central differences on 50 games: {worst:.2e} rel")


# ---------------------------------------------------------------------------
# 10. Monte-Carlo consistency


def test_criterion_10_mc_consistency():
    game = toy_game()
    policy = toy_policy()
    tables = solve_values(game, policy)
    dists = state_distributions(game, policy, 0)
    details = []
    for tag in (
        EstimatorTag.CENTRALIZED_VANILLA,
        EstimatorTag.COMA,
        EstimatorTag.OB_X,
    ):
        kind = EstimatorKind(tag, 0)
        exact = per_timestep_variances(
            moments_of(kind, game, policy, tables), dists
        )[0]
        [(est, se)] = mc_of(
            [kind], game, policy, 1_000_000, 1, np.random.default_rng(10),
            tables=tables,
        )
        assert abs(est - exact) <= 3 * se, (tag, est, exact, se)
        details.append(f"{tag.value} |z| = {abs(est - exact) / se:.2f}")
    # SE scaling: quadrupling n halves the standard error (+/- 20%)
    kind = EstimatorKind(EstimatorTag.CENTRALIZED_VANILLA, 0)
    [(_, se_small)] = mc_of(
        [kind], game, policy, 250_000, 1, np.random.default_rng(11), tables=tables
    )
    [(_, se_big)] = mc_of(
        [kind], game, policy, 1_000_000, 1, np.random.default_rng(12), tables=tables
    )
    ratio = se_small / se_big
    assert 1.6 <= ratio <= 2.4, ratio
    _line(10, f"n=10^6 within 3 SE ({'; '.join(details)}); SE ratio {ratio:.2f}")


# ---------------------------------------------------------------------------
# 11. training on the coordination game


def test_criterion_11_training():
    game = one_step_game((("a0", "a1", "a2"),) * 2, np.eye(3).reshape(-1))
    config = TrainConfig(
        baseline=BaselineKind(BaselineTag.OB_SURROGATE),
        actor_lr=0.6,
        batch_size=64,
        iterations=500,
        horizon=1,
        seed=0,
    )
    rows = compare_baselines(game, config, seeds=(0, 1, 2, 3, 4))
    by_tag = {r["baseline"]: r for r in rows}
    ob = by_tag["ob_surrogate"]
    # J >= 0.95 of the optimum (which is 1) within the 500 iterations
    assert all(r >= 0.95 for r in ob["per_seed_final_return"]), ob
    wins = sum(
        1
        for v_ob, v_none, v_coma in zip(
            ob["per_seed_grad_variance"],
            by_tag["none"]["per_seed_grad_variance"],
            by_tag["coma"]["per_seed_grad_variance"],
        )
        if v_ob < v_none and v_ob < v_coma
    )
    assert wins >= 4, (wins, rows)
    _line(
        11,
        f"OB reaches J >= 0.95 on 5/5 seeds (final {min(ob['per_seed_final_return']):.3f}"
        f"..{max(ob['per_seed_final_return']):.3f}); lower gradient variance "
        f"than vanilla AND counterfactual on {wins}/5 paired seeds",
    )


# ---------------------------------------------------------------------------
# 12. Gaussian optimal baseline


def test_criterion_12_gaussian():
    rng = np.random.default_rng(12)
    worst = 0.0
    h = 1e-5
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        mean = rng.uniform(-2, 2, size=d)
        std = rng.uniform(0.3, 2.0, size=d)
        action = mean + std * rng.standard_normal(d)
        grad = gaussian_log_prob_grad(mean, std, action)
        fd = np.empty(2 * d)
        for j in range(d):
            up, dn = mean.copy(), mean.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (
                gaussian_log_prob(up, std, action)
                - gaussian_log_prob(dn, std, action)
            ) / (2 * h)
            ups, dns = std.copy(), std.copy()
            ups[j] += h
            dns[j] -= h
            fd[d + j] = (
                gaussian_log_prob(mean, ups, action)
                - gaussian_log_prob(mean, dns, action)
            ) / (2 * h)
        rel = float(np.abs(grad - fd).max()) / max(1.0, float(np.abs(fd).max()))
        worst = max(worst, rel)
    assert worst < 1e-6, worst

    # a constant q-row is returned exactly
    for seed in (0, 1):
        val = sampled_ob_gaussian(
            lambda a: np.full(len(a), -1.75),
            np.zeros(2),
            np.ones(2),
            64,
            np.random.default_rng(seed),
        )
        assert val == -1.75

    # q(a) = a against a larger-sample run of the same estimator
    def payoff(a):
        return np.asarray(a)[:, 0]

    runs = np.array(
        [
            sampled_ob_gaussian(
                payoff, np.zeros(1), np.ones(1), 2_000,
                np.random.default_rng(1200 + s),
            )
            for s in range(50)
        ]
    )
    se = runs.std(ddof=1) / np.sqrt(len(runs))
    big = sampled_ob_gaussian(
        payoff, np.zeros(1), np.ones(1), 500_000, np.random.default_rng(999)
    )
    assert abs(runs.mean() - big) <= 3 * se
    _line(
        12,
        f"gradient vs differences {worst:.2e} rel over 1000 instances; "
        "constant row exact; linear row within "
        f"{abs(runs.mean() - big) / se:.2f} SE of the self-oracle",
    )


# ---------------------------------------------------------------------------
# 13. CLI determinism


def test_criterion_13_cli_byte_stability(tmp_path, capsys):
    def snapshot(dirpath):
        out = {}
        for name in sorted(os.listdir(dirpath)):
            with open(os.path.join(dirpath, name), "rb") as fh:
                out[name] = fh.read()
        return out

    gen_dir = tmp_path / "gen"
    assert main(["gen", "--agents", "2", "--states", "2", "--actions", "2",
                 "--seed", "5", "--out", str(gen_dir)]) == 0
    capsys.readouterr()
    game_path = str(gen_dir / os.listdir(gen_dir)[0])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {"baseline": "ob_surrogate", "actor_lr": 0.3, "batch_size": 8,
             "iterations": 4, "horizon": 3, "seed": 1}
        )
    )
    commands = {
        "toy": ["toy"],
        "verify": ["verify", "--games", "5", "--seed", "6"],
        "verify-json": ["verify", "--games", "4", "--seed", "6",
                        "--format", "json"],
        "report": ["report", "--game", game_path, "--t-max", "4",
                   "--mc", "400", "--seed", "7"],
        "report-json": ["report", "--game", game_path, "--t-max", "4",
                        "--seed", "7", "--format", "json"],
        "train": ["train", "--game", game_path, "--config", str(cfg_path)],
        "gen": ["gen", "--agents", "2", "--states", "3", "--actions", "2",
                "--seed", "8"],
    }
    for name, argv in commands.items():
        snaps, texts = [], []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            code = main(argv + ["--out", str(out)])
            assert code == 0, (name, code)
            texts.append(capsys.readouterr().out)
            snaps.append(snapshot(out))
        assert texts[0] == texts[1], f"{name}: stdout differs between runs"
        assert snaps[0] == snaps[1], f"{name}: files differ between runs"
        assert snaps[0], f"{name}: wrote no files"
    _line(13, f"{len(commands)} command variants byte-stable across repeat runs")
