import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import same_logits
from oracles import gaussian_log_prob, grad_log_softmax, x_measure_oracle

from mapgvar import (
    DegeneratePolicy,
    SoftmaxPolicy,
    gaussian_log_prob_grad,
    joint_action_prob_table,
    load_policy,
    policy_from_dict,
    policy_to_dict,
    random_game,
    random_softmax_policy,
    save_policy,
    score_geometry,
    softmax_probs,
    uniform_policy,
    x_measure_softmax,
)

logit_vectors = st.lists(
    st.floats(-10, 10, allow_nan=False), min_size=2, max_size=6
)


# ---------------------------------------------------------------------------
# softmax and its score


@settings(max_examples=200, deadline=None)
@given(logits=logit_vectors)
def test_softmax_is_a_distribution(logits):
    p = softmax_probs(np.array(logits))
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(logits=logit_vectors, shift=st.floats(-50, 50, allow_nan=False))
def test_softmax_shift_invariance(logits, shift):
    a = softmax_probs(np.array(logits))
    b = softmax_probs(np.array(logits) + shift)
    np.testing.assert_allclose(a, b, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(logits=logit_vectors)
def test_score_has_zero_mean(logits):
    p = softmax_probs(np.array(logits))
    total = sum(p[a] * grad_log_softmax(p, a) for a in range(len(p)))
    np.testing.assert_allclose(total, 0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(logits=logit_vectors)
def test_score_norm_identity(logits):
    p = softmax_probs(np.array(logits))
    for a in range(len(p)):
        g = grad_log_softmax(p, a)
        # closed form: 1 + ||p||^2 - 2 p_a
        assert abs(float(g @ g) - (1 + p @ p - 2 * p[a])) < 1e-12


def test_score_matches_finite_differences():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=4)
    h = 1e-6
    for a in range(4):
        p = softmax_probs(logits)
        fd = np.empty(4)
        for j in range(4):
            up, dn = logits.copy(), logits.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (
                np.log(softmax_probs(up)[a]) - np.log(softmax_probs(dn)[a])
            ) / (2 * h)
        np.testing.assert_allclose(grad_log_softmax(p, a), fd, atol=1e-8)


# ---------------------------------------------------------------------------
# the reweighted action measure


@settings(max_examples=100, deadline=None)
@given(logits=logit_vectors)
def test_x_measure_is_a_distribution(logits):
    p = softmax_probs(np.array(logits))
    x = x_measure_softmax(p)
    assert np.all(x >= 0)
    # rounding in x.sum() amplifies by 1/(1 - ||pi||^2) near-deterministic
    # policies, so the tolerance must scale with the conditioning
    tol = 64 * np.finfo(float).eps / (1.0 - float(p @ p))
    assert abs(x.sum() - 1.0) < tol
    # definition: x(a) proportional to pi(a) ||score(a)||^2
    w = np.array([p[a] * (1 + p @ p - 2 * p[a]) for a in range(len(p))])
    np.testing.assert_allclose(x, w / w.sum(), atol=tol)


def test_x_measure_rejects_degenerate_rows():
    # only a one-hot row leaves 1 - ||pi||^2 = 0; a nearly certain one has
    # an x-measure, on the actions it almost never takes
    assert np.all(np.isfinite(x_measure_softmax(softmax_probs(np.array([60.0, 0.0, 0.0])))))
    p = softmax_probs(np.array([1e308, -1e308, -1e308]))
    assert np.array_equal(p, [1.0, 0.0, 0.0])
    with pytest.raises(DegeneratePolicy):
        x_measure_softmax(p)
    # one degenerate row anywhere in a stack is enough
    stack = np.stack([np.full(3, 1 / 3), p, np.array([0.5, 0.25, 0.25])])
    with pytest.raises(DegeneratePolicy):
        x_measure_softmax(stack)


def test_x_measure_of_a_single_action_is_the_policy():
    # zero score vector: no baseline changes the variance, x = pi = [1.0]
    assert np.array_equal(x_measure_softmax(np.array([1.0])), [1.0])
    assert np.array_equal(x_measure_softmax(np.ones((4, 1))), np.ones((4, 1)))
    # two actions, one of them nearly certain, weigh each by the other's
    # probability; two actions, one of them certain, are degenerate
    x = x_measure_softmax(softmax_probs(np.array([60.0, 0.0])))
    np.testing.assert_allclose(x, [np.exp(-60.0), 1.0], rtol=1e-14)
    with pytest.raises(DegeneratePolicy):
        x_measure_softmax(softmax_probs(np.array([1e308, -1e308])))


def _decimal_x_measure(logits):
    """x(a) = pi_a ||e_a - pi||^2 / (1 - ||pi||^2) of the softmax of float
    ``logits``, worked in 700-digit decimals, which hold 1 - ||pi||^2 down to
    1e-600; the reference for the floats' rounding."""
    with localcontext() as ctx:
        ctx.prec = 700
        e = [Decimal(float(v)).exp() for v in logits]
        p = [v / sum(e) for v in e]
        gap = 1 - sum(v * v for v in p)
        norm_sq = [sum((int(a == b) - v) ** 2 for b, v in enumerate(p)) for a in range(len(p))]
        return [float(v * n / gap) for v, n in zip(p, norm_sq)]


def test_x_measure_of_a_nearly_certain_row_matches_exact_arithmetic():
    # logits [0, ln eps/2, ln eps/2]: 1 - ||pi||^2 is about 2 eps, which the
    # expanded formula forms by cancelling two numbers near 1
    q = np.array([10.0, 0.0, 5.0])
    for exponent in range(6, 301, 6):
        eps = 10.0**-exponent
        logits = np.array([0.0, np.log(eps / 2), np.log(eps / 2)])
        want = _decimal_x_measure(logits)
        p = softmax_probs(logits)
        x = x_measure_softmax(p)
        # x[0] is about eps; its score norm, about eps^2, underflows below 1e-154
        np.testing.assert_allclose(x, want, rtol=1e-14, atol=1e-15)
        assert abs(float(x @ q) - float(np.dot(want, q))) <= 1e-14 * 10.0
    assert float(score_geometry(p)[2]) < 1e-299


def test_score_geometry_is_the_softmax_score():
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, 7):
        p = softmax_probs(rng.standard_normal(k))
        scores, norm_sq, gap = score_geometry(p)
        want = np.stack([grad_log_softmax(p, a) for a in range(k)])
        np.testing.assert_allclose(scores, want, rtol=1e-15, atol=1e-16)
        np.testing.assert_allclose(norm_sq, (want**2).sum(axis=1), rtol=1e-14)
        assert abs(float(gap) - (1.0 - float(p @ p))) <= 1e-15
        assert np.all(norm_sq >= 0) and gap >= 0


@pytest.mark.parametrize("k", range(1, 40))
def test_cached_probability_table_equals_softmax_probs_per_row(k):
    rng = np.random.default_rng(100 + k)
    for scale in (0.0, 1.0, 8.0, 300.0):
        logits = scale * rng.standard_normal((9, k))
        policy = SoftmaxPolicy(logits)
        table = policy.all_probs()
        assert table is policy.all_probs()  # computed once
        for s in range(9):
            assert np.array_equal(policy.probs(s), softmax_probs(logits[s]))
            assert np.array_equal(table[s], policy.probs(s))
        with pytest.raises(ValueError):
            policy.probs(0)[0] = 1.0
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


@settings(max_examples=200, deadline=None)
@given(
    n_states=st.integers(1, 6),
    k=st.integers(1, 12),
    scale=st.floats(0.0, 1e300),
    seed=st.integers(0, 2**32 - 1),
    span=st.booleans(),
)
def test_softmax_policy_rows_are_softmax_probs_bit_for_bit(n_states, k, scale, seed, span):
    logits = scale * np.random.default_rng(seed).standard_normal((n_states, k))
    if span and k > 1:  # a row whose spread exceeds the float range
        logits[-1, 0] = -1.5e308
        logits[-1, -1] = 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = SoftmaxPolicy(logits).all_probs()
        rows = [softmax_probs(logits[s]) for s in range(n_states)]
    assert np.all(np.isfinite(table))
    for s in range(n_states):
        assert np.array_equal(table[s], rows[s])


@pytest.mark.parametrize("k", [2, 3, 5, 8, 17])
def test_x_measure_of_a_stack_equals_its_rows_exactly(k):
    rng = np.random.default_rng(k)
    stack = SoftmaxPolicy(2.0 * rng.standard_normal((12, k))).all_probs()
    x = x_measure_softmax(stack)
    geometry = score_geometry(stack)
    for s, p in enumerate(stack):
        assert np.array_equal(x[s], x_measure_softmax(p))
        # the expanded formula cancels where a score norm is small
        np.testing.assert_allclose(x[s], x_measure_oracle(p), rtol=0, atol=1e-12)
        for part, alone in zip(geometry, score_geometry(p)):
            assert np.array_equal(part[s], alone)
    deeper = x_measure_softmax(stack.reshape(3, 4, k))
    assert np.array_equal(deeper, x.reshape(3, 4, k))


def test_x_measure_equals_policy_at_uniform():
    # all score norms coincide at the uniform policy, so the reweighting
    # is a no-op — the one case where the optimal and counterfactual
    # baselines agree exactly.
    p = np.full(3, 1 / 3)
    np.testing.assert_allclose(x_measure_softmax(p), p, atol=1e-12)


# ---------------------------------------------------------------------------
# Gaussian score


def test_gaussian_log_prob_value():
    # one dimension, standard normal, at the mean
    lp = gaussian_log_prob(np.zeros(1), np.ones(1), np.zeros(1))
    assert abs(lp - (-0.5 * np.log(2 * np.pi))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    mean=st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=3),
    scale=st.lists(st.floats(0.2, 3, allow_nan=False), min_size=1, max_size=3),
    offset=st.floats(-2, 2, allow_nan=False),
)
def test_gaussian_grad_matches_fd(mean, scale, offset):
    d = min(len(mean), len(scale))
    mean = np.array(mean[:d])
    std = np.array(scale[:d])
    action = mean + offset
    grad = gaussian_log_prob_grad(mean, std, action)
    assert grad.shape == (2 * d,)
    # a stack of actions gives each action's gradient as one row
    stacked = gaussian_log_prob_grad(mean, std, np.stack([action, mean - offset]))
    assert np.array_equal(stacked[0], grad)
    assert np.array_equal(stacked[1], gaussian_log_prob_grad(mean, std, mean - offset))
    h = 1e-6
    fd = np.empty(2 * d)
    for j in range(d):
        up, dn = mean.copy(), mean.copy()
        up[j] += h
        dn[j] -= h
        fd[j] = (
            gaussian_log_prob(up, std, action)
            - gaussian_log_prob(dn, std, action)
        ) / (2 * h)
    for j in range(d):
        up, dn = std.copy(), std.copy()
        up[j] += h
        dn[j] -= h
        fd[d + j] = (
            gaussian_log_prob(mean, up, action)
            - gaussian_log_prob(mean, dn, action)
        ) / (2 * h)
    np.testing.assert_allclose(grad, fd, atol=1e-5)


# ---------------------------------------------------------------------------
# policy containers


def test_softmax_policy_probs_rows():
    logits = np.array([[0.0, 1.0], [2.0, 2.0]])
    pol = SoftmaxPolicy(logits)
    assert pol.n_actions == 2
    np.testing.assert_allclose(pol.probs(1), [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(pol.all_probs().sum(axis=1), 1.0, atol=1e-12)


def test_joint_action_prob_table_factorizes():
    game = random_game(3, 2, 2, seed=3)
    rng = np.random.default_rng(3)
    policy = random_softmax_policy(game, rng)
    table = joint_action_prob_table(game, policy)
    assert table.shape == (game.n_states, game.n_joint_actions)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
    for s in range(game.n_states):
        for a_idx in range(game.n_joint_actions):
            combo = game.joint_action(a_idx)
            expect = 1.0
            for i, a in enumerate(combo):
                expect *= float(policy.probs(i, s)[a])
            assert abs(table[s, a_idx] - expect) < 1e-12


def test_uniform_policy_rows():
    game = random_game(2, 3, 3, seed=9)
    pol = uniform_policy(game)
    for i in range(2):
        for s in range(3):
            np.testing.assert_allclose(pol.probs(i, s), 1 / 3, atol=1e-15)


# ---------------------------------------------------------------------------
# serialization


def test_policy_round_trip_softmax(tmp_path):
    game = random_game(2, 2, 3, seed=21)
    pol = random_softmax_policy(game, np.random.default_rng(21))
    again = policy_from_dict(policy_to_dict(pol))
    assert same_logits(again, pol)
    path = tmp_path / "policy.json"
    save_policy(path, pol)
    assert same_logits(load_policy(path), pol)


def test_policy_from_dict_rejects_bad_input():
    with pytest.raises(ValueError):
        policy_from_dict({"schema_version": 99, "agents": []})
    with pytest.raises(ValueError):
        policy_from_dict(
            {"schema_version": 1, "agents": [{"kind": "tabular", "logits": [[0.0]]}]}
        )


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "must be a JSON object"),
        ({"schema_version": 1}, "must list its agents"),
        ({"schema_version": 1, "agents": [1]}, "unknown policy kind None"),
        (
            {"schema_version": 1, "agents": [{"kind": "softmax"}]},
            "malformed softmax agent",
        ),
        (
            {"schema_version": 1, "agents": [{"kind": "softmax", "logits": {"a": 1}}]},
            "malformed softmax agent",
        ),
        (
            {
                "schema_version": 1,
                "agents": [{"kind": "gaussian", "mean": [[0.5]], "std": [[1.0]]}],
            },
            "unknown policy kind 'gaussian'",
        ),
    ],
)
def test_malformed_policy_documents_raise_value_error(doc, message):
    with pytest.raises(ValueError, match=message):
        policy_from_dict(doc)
