import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grad_log_softmax, ob_exact, ob_quadrature_gaussian
from oracles import ob_surrogate_gaussian_oracle, sampled_ob_gaussian

from mapgvar import (
    BaselineKind,
    BaselineTag,
    EstimatorKind,
    TrainConfig,
    coma_baseline,
    gaussian_log_prob_grad,
    local_variance,
    ob_surrogate_discrete,
    ob_surrogate_gaussian,
    signal_table,
    softmax_probs,
    solve_values,
    toy_game,
    toy_policy,
)
from mapgvar.training import _SIGNAL_FOR_BASELINE

q_rows = st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=6)
logit_rows = st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=6)


def _pair(q, logits):
    k = min(len(q), len(logits))
    return np.array(q[:k]), softmax_probs(np.array(logits[:k]))


# ---------------------------------------------------------------------------
# counterfactual baseline


def test_coma_baseline_is_the_policy_mean():
    q = np.array([2.0, 1.0, 100.0])
    pi = np.array([0.8, 0.1, 0.1])
    assert abs(coma_baseline(q, pi) - 11.7) < 1e-12


def test_coma_baseline_shape_mismatch():
    with pytest.raises(ValueError):
        coma_baseline(np.ones(3), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# optimal baseline, discrete


@settings(max_examples=200, deadline=None)
@given(q=q_rows, logits=logit_rows)
def test_surrogate_equals_exact_for_softmax(q, logits):
    # for a softmax output layer the gradient-norm weights are available in
    # closed form, so the surrogate and the generic form must agree exactly
    q, pi = _pair(q, logits)
    grads = [grad_log_softmax(pi, a) for a in range(len(pi))]
    assert abs(ob_surrogate_discrete(q, pi) - ob_exact(q, grads, pi)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    q=q_rows,
    logits=logit_rows,
    offset=st.floats(-20, 20, allow_nan=False).filter(lambda z: abs(z) > 1e-3),
)
def test_ob_minimizes_local_variance(q, logits, offset):
    q, pi = _pair(q, logits)
    b_star = ob_surrogate_discrete(q, pi)
    at_star = local_variance(pi, q - b_star)
    at_other = local_variance(pi, q - (b_star + offset))
    assert at_star <= at_other + 1e-9
    # strictly worse away from the optimum
    assert at_other - at_star > 1e-9 * offset**2


def test_ob_is_the_expectation_under_x():
    from mapgvar import x_measure_softmax

    q = np.array([2.0, 1.0, 100.0])
    pi = np.array([0.8, 0.1, 0.1])
    assert abs(ob_surrogate_discrete(q, pi) - x_measure_softmax(pi) @ q) < 1e-12


def test_ob_constant_row_returns_the_constant():
    pi = softmax_probs(np.array([0.3, -0.2, 1.0]))
    assert abs(ob_surrogate_discrete(np.full(3, 7.5), pi) - 7.5) < 1e-12


def test_ob_exact_rejects_all_zero_grads():
    q = np.array([1.0, 2.0])
    with pytest.raises(ZeroDivisionError):
        ob_exact(q, [np.zeros(2), np.zeros(2)], np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# optimal baseline, Gaussian (sampled surrogate)


def test_gaussian_ob_constant_q_is_exact():
    rng = np.random.default_rng(0)
    val = sampled_ob_gaussian(
        lambda a: np.full(len(a), 3.25),
        mean=np.zeros(2),
        std=np.ones(2),
        n_samples=16,
        rng=rng,
    )
    assert val == 3.25  # no sampling noise and no rounding for constant rows


def test_gaussian_ob_rows_equal_the_one_row_formula():
    # each row of a stack rounds like the 1-D formula; row 2's q-values are flat
    rng = np.random.default_rng(3)
    mean, std = np.array([0.3, -1.0]), np.array([0.5, 2.0])
    actions = mean + std * rng.standard_normal((4, 64, 2))
    q_vals = np.minimum(actions[..., 0] ** 3 - actions[..., 1], 1.5)
    q_vals[2] = 1.5
    got = ob_surrogate_gaussian(actions, mean, std, q_vals)
    for row, q, b in zip(actions, q_vals, got):
        diff = row - mean
        norms = np.sum((diff / std**2) ** 2, axis=1)
        norms = norms + np.sum(((diff**2 - std**2) / std**3) ** 2, axis=1)
        flat = q.min() == q.max()
        assert b == (q[0] if flat else float(norms @ q) / float(norms.sum()))
    assert got[2] == 1.5


@pytest.mark.parametrize("d", [*range(1, 10), 16, 130])
def test_gaussian_ob_equals_the_last_axis_formula(d):
    # the kernel sums its d component planes in numpy's last-axis order:
    # a left fold below 8 terms, pairwise above; stds spanning a decade and
    # more make the terms differ in magnitude, so another order would show
    rng = np.random.default_rng(d)
    mean, std = rng.normal(size=d), rng.uniform(0.05, 3.0, size=d)
    for lead in ((64,), (5, 64)):
        actions = mean + std * rng.standard_normal((*lead, d))
        q_vals = np.minimum(actions[..., 0] ** 3 - actions[..., -1], 1.5)
        expected = ob_surrogate_gaussian_oracle(actions, mean, std, q_vals)
        assert np.array_equal(ob_surrogate_gaussian(actions, mean, std, q_vals), expected)
    # rows of a (d + 3, 5, 64) column-major plane moved to the last axis,
    # the view train_gaussian passes
    plane = np.zeros((d + 3, 5, 64))
    plane[1 : d + 1] = np.moveaxis(actions, -1, 0)
    view = np.moveaxis(plane[1 : d + 1], 0, -1)
    assert view.strides == (64 * 8, 8, 5 * 64 * 8)
    assert np.array_equal(view, actions)
    assert np.array_equal(ob_surrogate_gaussian(view, mean, std, q_vals), expected)


@pytest.mark.parametrize("scale", [1e155, 1e-170, 1e-110])
def test_gaussian_kernels_reject_a_std_whose_powers_leave_the_float_range(scale):
    # std**2 overflows at 1e155 and underflows at 1e-170; std**3 underflows
    # at 1e-110. Each must raise, with no RuntimeWarning on the way.
    actions, mean, std = np.zeros((4, 2)), np.zeros(2), np.full(2, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"std [{scale!r}, {scale!r}]")):
            ob_surrogate_gaussian(actions, mean, std, np.arange(4.0))
        with pytest.raises(ValueError, match=re.escape(f"std [{scale!r}, {scale!r}]")):
            gaussian_log_prob_grad(mean, std, actions)
        # inside the range, the same draw gives a finite baseline and score
        for inside in (1e-100, 1e100):
            std = np.full(2, inside)
            assert np.isfinite(ob_surrogate_gaussian(actions, mean, std, np.arange(4.0)))
            assert np.all(np.isfinite(gaussian_log_prob_grad(mean, std, actions)))


def test_gaussian_ob_linear_q_self_oracle():
    # q(a) = a in one dimension: compare a small-sample mean of the
    # estimator against one large-sample run of the same estimator
    def payoff(a):
        return np.asarray(a)[:, 0]

    runs = []
    for seed in range(40):
        rng = np.random.default_rng(100 + seed)
        runs.append(
            sampled_ob_gaussian(payoff, np.zeros(1), np.ones(1), 2_000, rng)
        )
    runs = np.array(runs)
    se = runs.std(ddof=1) / np.sqrt(len(runs))
    big = sampled_ob_gaussian(
        payoff, np.zeros(1), np.ones(1), 400_000, np.random.default_rng(999)
    )
    assert abs(runs.mean() - big) <= 3 * se + 5e-3


# With z = (a - mean) / std, the score norm is sum_j (z_j^4 - z_j^2 + 1) / std_j^2,
# of mean sum_j 3 / std_j^2. The standard normal's moments E z^2, z^4, z^6,
# z^8 = 1, 3, 15, 105 give E[norm * z_j^2] = 13 / std_j^2 + (the other
# components' 3 / std_i^2) and E[norm * z_j^4] = 93 / std_j^2 + 3 * (the
# others'), and odd powers of z average to 0.
_M1, _S1 = np.array([0.3]), np.array([0.7])
_M2, _S2 = np.array([0.3, -1.2]), np.array([0.7, 1.5])
_N2 = 3 / _S2[0] ** 2 + 3 / _S2[1] ** 2  # E[norm] for (_M2, _S2)


@pytest.mark.parametrize(
    "mean, std, q_fn, degree, want",
    [
        (_M1, _S1, lambda a: np.full(len(a), 5.0), 0, 5.0),
        (_M1, _S1, lambda a: a[:, 0], 1, 0.3),
        (_M1, _S1, lambda a: (a[:, 0] - 0.3) ** 2, 2, 13 * 0.7**2 / 3),
        (_M1, _S1, lambda a: (a[:, 0] - 0.3) ** 3, 3, 0.0),
        (_M1, _S1, lambda a: (a[:, 0] - 0.3) ** 4, 4, 31 * 0.7**4),
        (_M2, _S2, lambda a: (a[:, 0] - 0.3) ** 2, 2,
         0.7**2 * (13 / 0.7**2 + 3 / 1.5**2) / _N2),
        (_M2, _S2, lambda a: (a[:, 0] - 0.3) * (a[:, 1] + 1.2), 2, 0.0),
        (_M2, _S2, lambda a: ((a[:, 0] - 0.3) * (a[:, 1] + 1.2)) ** 2, 4,
         0.7**2 * 1.5**2 * (13 / 0.7**2 + 13 / 1.5**2) / _N2),
    ],
    ids=["constant", "linear", "square", "cube", "fourth", "d2-square", "d2-cross",
         "d2-square-product"],
)
def test_gaussian_ob_quadrature_equals_the_hand_moments(mean, std, q_fn, degree, want):
    # exact from (degree + 5) / 2 nodes per component, rounded up, and on
    for n_nodes in range((degree + 6) // 2, 9):
        got = ob_quadrature_gaussian(q_fn, mean, std, n_nodes)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), n_nodes


def test_gaussian_ob_quadrature_is_not_exact_below_its_node_count():
    # 4 nodes integrate degree 7 exactly; norm * (a - mean)^4 has degree 8
    fourth = ob_quadrature_gaussian(lambda a: (a[:, 0] - 0.3) ** 4, _M1, _S1, 4)
    assert abs(fourth - 31 * 0.7**4) > 1e-3


def _quadratic_payoff(d, seed):
    """q = 2 - (a - c)^T A (a - c) with A a random positive semidefinite
    matrix: degree 2, so 4 Gauss-Hermite nodes per component are exact."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d))
    a_mat, c = m @ m.T / d, rng.normal(size=d)

    def payoff(x):
        diff = x - c
        return 2.0 - np.einsum("...i,ij,...j->...", diff, a_mat, diff)

    return payoff


@pytest.mark.parametrize("d, n_samples", [(1, 500), (2, 2_000), (3, 5_000)])
def test_gaussian_ob_surrogate_is_within_3_se_of_the_quadrature(d, n_samples):
    rng = np.random.default_rng(40 + d)
    mean, std = rng.normal(size=d), rng.uniform(0.5, 1.5, size=d)
    payoff = _quadratic_payoff(d, d)
    want = ob_quadrature_gaussian(payoff, mean, std, 4)
    rows = 40
    actions = mean + std * rng.standard_normal((rows, n_samples, d))
    got = ob_surrogate_gaussian(actions, mean, std, payoff(actions))
    se = got.std(ddof=1) / np.sqrt(rows)
    assert abs(got.mean() - want) <= 3 * se, (got.mean(), want, se)


def test_gaussian_ob_requires_two_samples():
    # one sample would make the sampled baseline that sample's own q-value
    with pytest.raises(ValueError, match="ob_n_samples"):
        TrainConfig(ob_n_samples=1)


# ---------------------------------------------------------------------------
# plumbing


def _toy_signal_row(baseline_tag):
    """The worked example's signal row for the kind train uses with a baseline."""
    game, policy = toy_game(), toy_policy()
    q = solve_values(game, policy).q
    kind = EstimatorKind(_SIGNAL_FOR_BASELINE[baseline_tag], 0)
    return q[0], policy.probs(0, 0), signal_table(kind, game, policy, q)[0]


def test_x_value_shifts_the_row():
    # the optimal-baseline signal is the Q-row shifted by b*, which is
    # 43.65 on the worked example (43.71 after its two-decimal weights)
    q, pi, x_row = _toy_signal_row(BaselineTag.OB_SURROGATE)
    np.testing.assert_allclose(x_row, q - ob_surrogate_discrete(q, pi), atol=1e-12)
    np.testing.assert_allclose(x_row, [-41.65, -42.65, 56.35], atol=5e-3)


def test_baseline_kind_coerces_tags():
    assert BaselineKind("coma").tag is BaselineTag.COMA
    with pytest.raises(ValueError):
        BaselineKind("no-such-baseline")


def test_baseline_value_dispatch():
    # each baseline train accepts subtracts its b from the Q-row; for softmax
    # scores the exact optimal baseline is the x-measure surrogate
    for tag, expect in (
        (BaselineTag.NONE, lambda q, pi: 0.0),
        (BaselineTag.COMA, lambda q, pi: 11.7),
        (BaselineTag.OB_SURROGATE, ob_surrogate_discrete),
        (
            BaselineTag.OB_EXACT,
            lambda q, pi: ob_exact(q, [grad_log_softmax(pi, a) for a in range(3)], pi),
        ),
    ):
        q, pi, row = _toy_signal_row(tag)
        np.testing.assert_allclose(q - row, expect(q, pi), atol=1e-9)
