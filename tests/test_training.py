import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import one_step_game, rollout_steps, same_logits
from oracles import (
    compare_baselines,
    gaussian_counterfactual_joints,
    ppo_step_oracle,
    td_batch_oracle,
    trajectory_gradient,
)

from mapgvar import (
    BaselineKind,
    BaselineTag,
    ContinuousOneStepTask,
    CriticConfig,
    DegeneratePolicy,
    DivergenceError,
    EstimatorKind,
    EstimatorTag,
    JointPolicy,
    MarkovGame,
    PPOConfig,
    SoftmaxPolicy,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    exact_policy_gradient,
    init_critic,
    load_checkpoint,
    random_game,
    random_softmax_policy,
    rollout,
    save_checkpoint,
    signal_table,
    solve_values,
    td_learn_q,
    train,
    train_gaussian,
    uniform_policy,
)
from mapgvar import training
from mapgvar.values import ValueTables


def coordination_game() -> MarkovGame:
    # two agents, three actions each, reward 1 on the diagonal
    return one_step_game((("a0", "a1", "a2"),) * 2, np.eye(3).reshape(-1))


def quick_config(**overrides):
    kwargs = dict(
        baseline=BaselineKind(BaselineTag.OB_SURROGATE),
        actor_lr=0.6,
        batch_size=64,
        iterations=40,
        horizon=1,
        seed=0,
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# configs


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(actor_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError):
        CriticConfig(mode="sarsa")
    with pytest.raises(ValueError):
        PPOConfig(eps_clip=0.0)
    with pytest.raises(ValueError):
        PPOConfig(epochs=0)


def test_config_round_trip():
    cfg = TrainConfig(
        baseline=BaselineKind(BaselineTag.COMA),
        actor_lr=0.25,
        critic=CriticConfig(mode="td", lr=0.3, target_sync_interval=4),
        batch_size=16,
        ppo=PPOConfig(eps_clip=0.1, epochs=2),
        horizon=7,
        iterations=11,
        seed=5,
        ob_n_samples=50,
        entropy_coef=0.01,
    )
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    # json round trip too, since this is what lands on disk
    again2 = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert again2 == cfg


def test_config_from_dict_defaults():
    # absent keys take the dataclass defaults
    cases = [
        ({}, TrainConfig()),
        ({"iterations": 2}, TrainConfig(iterations=2)),
        ({"iterations": 2, "critic": {"mode": "td"}},
         TrainConfig(iterations=2, critic=CriticConfig(mode="td"))),
        ({"iterations": 2, "baseline": "coma", "ppo": {"eps_clip": 0.2, "epochs": 2}},
         TrainConfig(iterations=2, baseline=BaselineKind(BaselineTag.COMA),
                     ppo=PPOConfig(eps_clip=0.2, epochs=2))),
    ]
    for doc, expected in cases:
        assert config_from_dict(doc) == expected, doc


# ---------------------------------------------------------------------------
# TD critic


def test_td_fixed_point():
    game = random_game(2, 3, 2, seed=42)
    policy = uniform_policy(game)
    tables = solve_values(game, policy)
    state = init_critic(game, CriticConfig(mode="td", lr=0.5))
    state = dataclasses.replace(state, q=tables.q.copy(), target_q=tables.q.copy())
    after = td_learn_q(game, policy, None, state)
    np.testing.assert_allclose(after.q, tables.q, atol=1e-9)


def test_td_full_sweeps_converge():
    game = dataclasses.replace(random_game(2, 3, 3, seed=42), gamma=0.9)
    policy = uniform_policy(game)
    tables = solve_values(game, policy)
    state = init_critic(game, CriticConfig(mode="td", lr=0.5))
    errs = []
    for _ in range(1000):
        state = td_learn_q(game, policy, None, state)
        errs.append(float(np.abs(state.q - tables.q).max()))
    assert errs[-1] < 1e-3
    # sup-norm error is monotone under full synchronous sweeps
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_td_gamma_zero_one_sweep_reads_the_reward():
    game = dataclasses.replace(random_game(2, 2, 2, seed=9), gamma=0.0)
    policy = uniform_policy(game)
    state = init_critic(game, CriticConfig(mode="td", lr=1.0))
    after = td_learn_q(game, policy, None, state)
    np.testing.assert_allclose(after.q, game.reward, atol=1e-15)


def test_td_transition_batch_updates_only_visited_entries():
    game = random_game(2, 2, 2, seed=10)
    policy = uniform_policy(game)
    state = init_critic(game, CriticConfig(mode="td", lr=0.5))
    batch = (np.array([0]), np.array([1]), np.array([0.25]), np.array([1]))
    after = td_learn_q(game, policy, batch, state)
    # single transition: only (0, 1) moves, toward r + gamma * E[Q_tgt(s')] = 0.25
    assert after.q[0, 1] == pytest.approx(0.5 * 0.25)
    mask = np.ones_like(after.q, dtype=bool)
    mask[0, 1] = False
    assert np.all(after.q[mask] == 0.0)


@settings(max_examples=60, deadline=None)
@given(
    n_states=st.integers(1, 3),
    k=st.integers(1, 3),
    n_transitions=st.integers(0, 400),
    lr=st.sampled_from([1.0, 0.5, 0.1, 0.03]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_states=2, k=2, n_transitions=0, lr=0.5, seed=0)  # an empty batch
def test_td_batch_equals_the_per_transition_loop(n_states, k, n_transitions, lr, seed):
    # few cells and many transitions, so every cell is revisited often
    rng = np.random.default_rng(seed)
    game = random_game(2, n_states, k, seed=seed % 1000)
    policy = random_softmax_policy(game, rng)
    shape = (n_states, game.n_joint_actions)
    state = dataclasses.replace(
        init_critic(game, CriticConfig(mode="td", lr=lr)),
        q=rng.standard_normal(shape),
        target_q=rng.standard_normal(shape),
    )
    batch = (
        rng.integers(0, n_states, n_transitions),
        rng.integers(0, game.n_joint_actions, n_transitions),
        rng.uniform(-1.0, 1.0, n_transitions),
        rng.integers(0, n_states, n_transitions),
    )
    transitions = list(zip(*(column.tolist() for column in batch)))
    expected = td_batch_oracle(game, policy, transitions, state.q, state.target_q, lr)
    assert np.array_equal(td_learn_q(game, policy, batch, state).q, expected)

def test_td_target_sync_interval():
    game = random_game(2, 2, 2, seed=11)
    policy = uniform_policy(game)
    state = init_critic(game, CriticConfig(mode="td", lr=0.5, target_sync_interval=3))
    s1 = td_learn_q(game, policy, None, state)
    assert np.all(s1.target_q == 0.0)  # not synced yet
    s2 = td_learn_q(game, policy, None, s1)
    s3 = td_learn_q(game, policy, None, s2)
    np.testing.assert_array_equal(s3.target_q, s3.q)  # synced at sweep 3


# ---------------------------------------------------------------------------
# the main loop


def test_train_is_deterministic():
    game = coordination_game()
    cfg = quick_config(iterations=15)
    r1 = train(game, None, cfg)
    r2 = train(game, None, cfg)
    assert r1.history == r2.history
    assert same_logits(r1.policy, r2.policy)


def test_history_lengths_and_monotone_learning():
    game = coordination_game()
    result = train(game, None, quick_config(iterations=200))
    hist = result.history
    assert (
        len(hist.returns)
        == len(hist.grad_variance)
        == len(hist.grad_norm)
        == len(hist.entropies)
        == 200
    )
    # coordination is learnable: late returns beat the uniform-policy 1/3
    assert hist.returns[-1] > 0.9
    assert hist.returns[-1] > hist.returns[0]


def test_constant_reward_game_has_zero_gradients():
    game = one_step_game((("a0", "a1"), ("a0", "a1")), np.full(4, 0.5))
    result = train(game, None, quick_config(iterations=10, baseline=BaselineKind(BaselineTag.COMA)))
    assert all(abs(r - 0.5) < 1e-12 for r in result.history.returns)
    assert all(v < 1e-20 for v in result.history.grad_variance)
    assert all(g < 1e-12 for g in result.history.grad_norm)


def test_batch_mean_gradient_is_unbiased():
    # one big batch, one iteration, plain updates: the realized update
    # direction must sit within 3 standard errors of the exact gradient
    game = coordination_game()
    cfg = quick_config(
        iterations=1,
        batch_size=20_000,
        actor_lr=1.0,
        baseline=BaselineKind(BaselineTag.NONE),
    )
    initial = uniform_policy(game)
    result = train(game, initial, cfg)
    for i in range(game.n_agents):
        realized = (
            result.policy.agents[i].logits - initial.agents[i].logits
        ).reshape(-1)
        exact = exact_policy_gradient(game, initial, solve_values(game, initial), i)
        # per-trajectory contribution variance bounds the batch-mean SE
        spread = np.sqrt(
            result.history.grad_variance[0] / cfg.batch_size
        )
        np.testing.assert_array_less(
            np.abs(realized - exact), 3 * spread + 1e-6
        )


@pytest.mark.parametrize(
    "baseline, signal",
    [
        (BaselineTag.NONE, EstimatorTag.CENTRALIZED_VANILLA),
        (BaselineTag.COMA, EstimatorTag.COMA),
        (BaselineTag.OB_SURROGATE, EstimatorTag.OB_X),
    ],
)
def test_train_step_matches_the_per_trajectory_reference(baseline, signal):
    # replay train's batch from the same seed and rebuild every trajectory's
    # gradient with the per-step reference implementation
    game = random_game(2, 4, 3, seed=11)
    initial = random_softmax_policy(game, np.random.default_rng(5))
    cfg = quick_config(
        iterations=1, batch_size=6, horizon=9, seed=3, baseline=BaselineKind(baseline)
    )
    result = train(game, initial, cfg)

    tables = solve_values(game, initial)
    pi_tables = [agent.all_probs() for agent in initial.agents]
    steps = rollout_steps(rollout(game, pi_tables, cfg.batch_size, cfg.horizon,
                                  np.random.default_rng(cfg.seed)))
    flat = np.stack([
        np.concatenate([
            trajectory_gradient(
                EstimatorKind(signal, i),
                game,
                initial,
                tables,
                [(s[b], tuple(a[b] for a in actions)) for s, actions, _, _ in steps],
            )
            for i in range(game.n_agents)
        ])
        for b in range(cfg.batch_size)
    ])
    mean = flat.mean(axis=0)
    variance = float(((flat - mean) ** 2).sum() / (cfg.batch_size - 1))

    rel = dict(rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(result.history.grad_norm[0], np.linalg.norm(mean), **rel)
    np.testing.assert_allclose(result.history.grad_variance[0], variance, **rel)
    offset = 0
    for agent, start in zip(result.policy.agents, initial.agents):
        width = start.logits.size
        expected = start.logits + cfg.actor_lr * mean[offset : offset + width].reshape(
            start.logits.shape
        )
        np.testing.assert_allclose(agent.logits, expected, **rel)
        offset += width


def test_ppo_step_matches_the_clipped_surrogate_reference():
    # replay one iteration's batch and rebuild every epoch's step sample by
    # sample; the clip binds at eps 0.05 and actor_lr 3 after a first epoch
    game = random_game(2, 3, 3, seed=1)
    initial = random_softmax_policy(game, np.random.default_rng(2))
    ppo = PPOConfig(eps_clip=0.05, epochs=3)
    cfg = quick_config(iterations=1, batch_size=6, horizon=9, seed=4, actor_lr=3.0,
                       ppo=ppo, baseline=BaselineKind(BaselineTag.COMA))
    result = train(game, initial, cfg)

    q = solve_values(game, initial).q
    pi_tables = [agent.all_probs() for agent in initial.agents]
    steps = rollout_steps(rollout(game, pi_tables, cfg.batch_size, cfg.horizon,
                                  np.random.default_rng(cfg.seed)))
    clipped = 0
    for i, (agent, start) in enumerate(zip(result.policy.agents, initial.agents)):
        sig = signal_table(EstimatorKind(EstimatorTag.COMA, i), game, initial, q)
        samples = [
            (s[b], actions[i][b], game.gamma**t * sig[s[b], a_idx[b]])
            for t, (s, actions, a_idx, _) in enumerate(steps)
            for b in range(cfg.batch_size)
        ]
        logits = start.logits.copy()
        for _ in range(ppo.epochs):
            step, n_clipped = ppo_step_oracle(logits, pi_tables[i], samples,
                                              ppo.eps_clip, len(samples))
            logits = logits + cfg.actor_lr * step
            clipped += n_clipped
        np.testing.assert_allclose(agent.logits, logits, rtol=0.0, atol=1e-12)
    assert clipped > 0


def test_ob_training_rejects_a_degenerate_row_in_an_unvisited_state():
    # state 1 is never reached, yet its one-hot row leaves the x-measure
    # undefined there, so the OB signal table cannot be built
    game = MarkovGame(
        n_agents=2,
        states=("s0", "s1"),
        action_spaces=(("a0", "a1"), ("a0", "a1")),
        transition=np.stack([np.ones((2, 4)), np.zeros((2, 4))], axis=-1),
        reward=np.linspace(-1.0, 1.0, 8).reshape(2, 4),
        beta=1.0,
        gamma=0.5,
        initial_dist=np.array([1.0, 0.0]),
    )
    initial = JointPolicy(
        (SoftmaxPolicy([[0.0, 0.0], [1e308, -1e308]]), SoftmaxPolicy(np.zeros((2, 2))))
    )
    train(game, initial, quick_config(iterations=2, baseline=BaselineKind(BaselineTag.COMA)))
    with pytest.raises(DegeneratePolicy):
        train(game, initial, quick_config(iterations=2))


def test_ob_training_runs_on_as_its_rows_become_nearly_certain():
    # at actor_lr 100 the rows leave 1 - ||pi||^2 far below 1e-10 within two
    # iterations; the x-measure stays defined until a row is exactly one-hot
    game = dataclasses.replace(random_game(2, 2, 2, seed=4), gamma=0.5)
    config = TrainConfig(baseline=BaselineKind(BaselineTag.OB_SURROGATE),
                         actor_lr=100.0, iterations=20)
    result = train(game, None, config)
    assert len(result.history.returns) == 20
    assert all(np.all(np.isfinite(agent.logits)) for agent in result.policy.agents)


def test_td_critic_training_runs_and_learns():
    game = coordination_game()
    cfg = quick_config(
        iterations=150,
        critic=CriticConfig(mode="td", lr=0.5),
        seed=1,
    )
    result = train(game, None, cfg)
    assert result.history.returns[-1] > 0.8


def test_ppo_path_improves():
    game = coordination_game()
    cfg = quick_config(
        iterations=60,
        actor_lr=0.3,
        batch_size=32,
        ppo=PPOConfig(eps_clip=0.2, epochs=4),
        seed=2,
    )
    result = train(game, None, cfg)
    assert result.history.returns[-1] > 0.9


def test_entropy_bonus_keeps_entropy_higher():
    game = coordination_game()
    plain = train(game, None, quick_config(iterations=80, seed=3))
    bonused = train(
        game, None, quick_config(iterations=80, seed=3, entropy_coef=0.05)
    )
    ent_plain = sum(plain.history.entropies[-1])
    ent_bonus = sum(bonused.history.entropies[-1])
    assert ent_bonus > ent_plain


def test_divergence_guard_fires(monkeypatch):
    # no valid game reaches the guard, |J| <= beta / (1 - gamma), so the solver
    # is made to return values 100 times the true ones: |J| = 100 exceeds
    # 10 * beta / (1 - gamma) = 10
    game = one_step_game((("a0", "a1"),), [1.0, 1.0])

    def inflated(game, policy):
        tables = solve_values(game, policy)
        return ValueTables(q=100.0 * tables.q, v=100.0 * tables.v)

    monkeypatch.setattr(training, "solve_values", inflated)
    with pytest.raises(DivergenceError) as exc_info:
        train(game, None, quick_config(iterations=5))
    assert "bound" in str(exc_info.value)
    assert exc_info.value.report["iteration"] == 0


def test_history_serialization():
    game = coordination_game()
    result = train(game, None, quick_config(iterations=5))
    rows = result.history.to_csv_rows()
    assert len(rows) == 5
    assert len(rows[0]) == 4 + game.n_agents  # it, J, var, norm, entropies
    doc = result.history.to_json_dict()
    assert doc["schema_version"] == 1
    assert len(doc["returns"]) == 5


# ---------------------------------------------------------------------------
# paired comparison


def test_compare_baselines_requires_five_seeds():
    with pytest.raises(ValueError):
        compare_baselines(coordination_game(), quick_config(), seeds=(0, 1))


def test_compare_baselines_shape_and_pairing():
    game = coordination_game()
    rows = compare_baselines(
        game,
        quick_config(iterations=30),
        seeds=(0, 1, 2, 3, 4),
    )
    assert [r["baseline"] for r in rows] == ["none", "coma", "ob_surrogate"]
    for r in rows:
        assert r["seeds"] == [0, 1, 2, 3, 4]
        assert len(r["per_seed_grad_variance"]) == 5
        assert r["mean_grad_variance"] == pytest.approx(
            np.mean(r["per_seed_grad_variance"])
        )


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    game = coordination_game()
    cfg = quick_config(iterations=8)
    result = train(game, None, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, result.policy, result.final_rng_state)
    cfg2, policy2, rng_state2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert same_logits(policy2, result.policy)
    assert rng_state2 == result.final_rng_state


def test_checkpoint_rejects_unknown_schema(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"schema_version": 999}')
    with pytest.raises(ValueError, match="schema_version"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "drop, text, message",
    [
        (None, "[]", "must be a JSON object"),
        (None, '"checkpoint"', "must be a JSON object"),
        (("config",), None, "needs config"),
        (("policy",), None, "needs policy"),
        (("rng_state",), None, "needs rng_state"),
        (("config", "rng_state"), None, "needs config, rng_state"),
    ],
    ids=["list", "string", "no-config", "no-policy", "no-rng-state", "two-missing"],
)
def test_checkpoint_rejects_a_malformed_document(tmp_path, drop, text, message):
    path = tmp_path / "ckpt.json"
    if text is None:
        cfg = quick_config(iterations=1)
        save_checkpoint(path, cfg, train(coordination_game(), None, cfg).policy, {})
        doc = json.loads(path.read_text())
        text = json.dumps({k: v for k, v in doc.items() if k not in drop})
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# Gaussian actors on a continuous task


def gaussian_task():
    def payoff(x):
        return np.exp(-np.sum((x - 0.7) ** 2, axis=1))

    return ContinuousOneStepTask(payoff=payoff, dims=(1,), beta=1.0)


def test_train_gaussian_moves_the_mean():
    task = gaussian_task()
    cfg = TrainConfig(
        baseline=BaselineKind(BaselineTag.OB_SURROGATE),
        actor_lr=0.2,
        batch_size=64,
        iterations=150,
        seed=0,
        ob_n_samples=64,
    )
    hist, params = train_gaussian(task, [(np.zeros(1), np.ones(1))], cfg)
    mean, std = params[0]
    assert abs(float(mean[0]) - 0.7) < 0.25
    assert hist.returns[-1] > hist.returns[0]


def test_train_gaussian_is_deterministic():
    task = gaussian_task()
    cfg = TrainConfig(batch_size=16, iterations=10, seed=4, actor_lr=0.1)
    h1, p1 = train_gaussian(task, [(np.zeros(1), np.ones(1))], cfg)
    h2, p2 = train_gaussian(task, [(np.zeros(1), np.ones(1))], cfg)
    assert h1 == h2
    assert np.array_equal(p1[0][0], p2[0][0])


def test_train_gaussian_divergence_guard():
    task = ContinuousOneStepTask(
        payoff=lambda x: np.full(len(x), 50.0), dims=(1,), beta=1.0
    )
    with pytest.raises(DivergenceError):
        train_gaussian(
            task,
            [(np.zeros(1), np.ones(1))],
            TrainConfig(batch_size=8, iterations=3, seed=0),
        )


def test_train_gaussian_validates_params():
    task = gaussian_task()
    with pytest.raises(ValueError, match="one .* per agent"):
        train_gaussian(
            task,
            [(np.zeros(1), np.ones(1)), (np.zeros(1), np.ones(1))],
            TrainConfig(batch_size=8, iterations=2, seed=0),
        )
    # each agent's mean and std hold one entry per action component
    task = ContinuousOneStepTask(payoff=lambda x: -np.sum(x**2, axis=1), dims=(2,), beta=1.0)
    for mean, std in ((np.zeros(1), np.ones(2)), (np.zeros(2), np.ones(1)),
                      (np.zeros(2), 1.0), (np.zeros((1, 2)), np.ones(2))):
        with pytest.raises(ValueError, match="must each hold 2 components"):
            train_gaussian(task, [(mean, std)], TrainConfig(batch_size=8, iterations=2))


def _total_cost(x):
    return -float(np.sum(x**2))


def _column_cost(x):
    return -np.sum(x**2, axis=1, keepdims=True)


def _short_cost(x):
    return -np.sum(x[1:] ** 2, axis=1)


@pytest.mark.parametrize("baseline", ["none", "coma", "ob_surrogate"])
@pytest.mark.parametrize("payoff, shape", [
    (_total_cost, "()"), (_column_cost, "(8, 1)"), (_short_cost, "(7,)"),
])
def test_train_gaussian_refuses_a_payoff_without_one_value_per_row(baseline, payoff, shape):
    # a scalar would train every row on the batch's total; (m, 1) and
    # (m - 1,) would fail inside numpy or broadcast; each is named here
    task = ContinuousOneStepTask(payoff=payoff, dims=(2, 1), beta=50.0)
    config = TrainConfig(baseline=BaselineKind(BaselineTag(baseline)),
                         batch_size=8, iterations=2, ob_n_samples=4, seed=0)
    init = [(np.zeros(2), np.ones(2)), (np.zeros(1), np.ones(1))]
    message = re.escape(f"payoff returned shape {shape} for 8 joint actions")
    with pytest.raises(ValueError, match=message):
        train_gaussian(task, init, config)


@pytest.mark.parametrize("payoff, shape", [
    (_total_cost, "()"), (_column_cost, "(32, 1)"), (_short_cost, "(31,)"),
])
def test_train_gaussian_refuses_a_counterfactual_payoff_without_one_value_per_row(
    payoff, shape
):
    # right on the batch of 8 rows, wrong on the 8 x 4 counterfactual rows
    def batch_only(x):
        return -np.sum(x**2, axis=1) if len(x) == 8 else payoff(x)

    task = ContinuousOneStepTask(payoff=batch_only, dims=(2, 1), beta=50.0)
    config = TrainConfig(baseline=BaselineKind(BaselineTag.OB_SURROGATE),
                         batch_size=8, iterations=2, ob_n_samples=4, seed=0)
    init = [(np.zeros(2), np.ones(2)), (np.zeros(1), np.ones(1))]
    message = re.escape(f"payoff returned shape {shape} for 32 joint actions")
    with pytest.raises(ValueError, match=message):
        train_gaussian(task, init, config)


@pytest.mark.parametrize("baseline, rows", [
    ("none", 8), ("coma", 8), ("ob_surrogate", 8), ("ob_surrogate", 32),
])
def test_train_gaussian_payoff_cannot_write_into_its_argument(baseline, rows):
    # the batch's scores and the baseline's sampled actions are read from
    # the memory the payoff is handed, after it returns; 8 rows is the
    # batch, 32 the counterfactual matrix
    def in_place(x):
        if len(x) == rows:
            np.square(x, out=x)
        return -np.sum(x**2, axis=1)

    task = ContinuousOneStepTask(payoff=in_place, dims=(2, 1), beta=50.0)
    config = TrainConfig(baseline=BaselineKind(BaselineTag(baseline)),
                         batch_size=8, iterations=2, ob_n_samples=4, seed=0)
    init = [(np.zeros(2), np.ones(2)), (np.zeros(1), np.ones(1))]
    with pytest.raises(ValueError, match="read-only"):
        train_gaussian(task, init, config)


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (3, 5), (9,)])
def test_train_gaussian_counterfactual_matrix_is_the_repeated_batch(dims):
    # a constant payoff leaves every step zero, so the parameters stay put
    # and the replay can draw the same stream with the initial ones
    seen = []

    def recording(x):
        seen.append(x)
        return np.zeros(len(x))

    task = ContinuousOneStepTask(payoff=recording, dims=dims, beta=1.0)
    config = TrainConfig(baseline=BaselineKind(BaselineTag.OB_SURROGATE),
                         batch_size=6, iterations=3, ob_n_samples=5, seed=9)
    init = [(np.linspace(-0.5, 0.5, d), np.linspace(0.4, 1.3, d)) for d in dims]
    _, params = train_gaussian(task, init, config)
    for (mean, std), (m0, s0) in zip(params, init):
        assert np.array_equal(mean, m0) and np.array_equal(std, s0)
    expected = gaussian_counterfactual_joints(init, 6, 5, 3, 9)
    assert len(seen) == len(expected) == 3 * (1 + len(dims))
    for k, (got, want) in enumerate(zip(seen, expected)):
        assert not got.flags.writeable
        if k % (1 + len(dims)):  # a counterfactual call
            assert got.shape == (30, sum(dims)) and got.flags.f_contiguous
        assert np.array_equal(got, want)
