"""Baselines for the per-agent policy-gradient signal.

Given one agent's row of Q-values over its own actions (other agents' actions
and the state held fixed), four choices of the scalar subtracted from that
row:

  none          b = 0 (vanilla signal Q itself)
  coma          b = E_{a~pi}[Q]  (counterfactual baseline; signal becomes the
                local advantage)
  ob_exact      b* = sum_a pi(a) Q(a) ||g_a||^2 / sum_a pi(a) ||g_a||^2, the
                variance-minimizing choice for arbitrary score vectors g_a;
                for softmax scores it equals ob_surrogate, and for Gaussian
                actors train_gaussian runs the same sampled surrogate as
                ob_surrogate, so there it is an estimate, not the exact b*
  ob_surrogate  the same optimum specialized to output-layer scores; for
                softmax it is the x-measure expectation of Q, and for Gaussian
                policies it is estimated from freshly sampled actions.

Any constant shift leaves the expected gradient unchanged; only the variance
moves. The optimal baseline is a gradient-norm-weighted average of Q, so it
leans toward the Q-values of actions whose score vectors are large.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .policies import gaussian_std_powers, x_measure_softmax


class BaselineTag(str, Enum):
    NONE = "none"
    COMA = "coma"
    OB_EXACT = "ob_exact"
    OB_SURROGATE = "ob_surrogate"


@dataclass(frozen=True)
class BaselineKind:
    tag: BaselineTag = BaselineTag.NONE

    def __post_init__(self):
        object.__setattr__(self, "tag", BaselineTag(self.tag))


def coma_baseline(q_row, pi_i) -> float:
    """Counterfactual baseline: the policy expectation of the Q-row."""
    q_row = np.asarray(q_row, dtype=float)
    pi_i = np.asarray(pi_i, dtype=float)
    if q_row.shape != pi_i.shape:
        raise ValueError(f"length mismatch: {q_row.shape} vs {pi_i.shape}")
    return float(pi_i @ q_row)


def ob_surrogate_discrete(q_row, pi_i) -> float:
    """Optimal baseline for a tabular softmax actor: E_x[Q] under the x-measure."""
    q_row = np.asarray(q_row, dtype=float)
    pi_i = np.asarray(pi_i, dtype=float)
    if q_row.shape != pi_i.shape:
        raise ValueError(f"length mismatch: {q_row.shape} vs {pi_i.shape}")
    return float(x_measure_softmax(pi_i) @ q_row)


def _last_axis_sum(planes):
    """``np.sum(np.stack(planes, axis=-1), axis=-1)`` bit for bit. Below 8
    planes numpy's order is a left fold, made here one plane at a time,
    summing into the planes it is given; from 8 on it is that formula. For
    nonnegative planes, whose sum starts at 0."""
    if len(planes) >= 8:
        return np.stack(planes, axis=-1).sum(axis=-1)
    total = planes[0]
    for plane in planes[1:]:
        total += plane
    return total


def ob_surrogate_gaussian(actions, mean, std, q_vals):
    """Sampled optimal baseline for a diagonal Gaussian actor: the
    score-norm-weighted mean of q over each row of sampled actions.

    ``actions`` is (..., n, d), drawn from N(mean, std), and ``q_vals`` its
    (..., n) q-values; returns one baseline per row. The score norm covers the
    whole (mean, std) output layer (the reference pseudocode is silent on
    whether the std components count). The std is checked by
    ``gaussian_std_powers``.
    """
    s2, s3 = gaussian_std_powers(std)
    actions = np.asarray(actions, dtype=float)
    if np.shape(q_vals) != actions.shape[:-1]:
        raise ValueError(
            f"q_vals of shape {np.shape(q_vals)} does not hold one value per "
            f"sampled action of {actions.shape}"
        )
    d = actions.shape[-1]
    mean = np.asarray(mean, dtype=float)
    mean, s2, s3 = (np.broadcast_to(x, (d,)) for x in (mean, s2, s3))
    # one (..., n) plane per action component: over a last axis of d entries
    # numpy would enter its inner loop once per d elements
    mean_terms, std_terms = [], []
    for j in range(d):
        diff = actions[..., j] - mean[j]
        sq = np.square(diff)
        np.divide(diff, s2[j], out=diff)
        mean_terms.append(np.square(diff, out=diff))
        sq -= s2[j]
        sq /= s3[j]
        std_terms.append(np.square(sq, out=sq))
    # with std**2 and std**3 normal floats, each norm is at least about
    # 0.75 / std**2 > 0, so no row's denominator vanishes
    norms = _last_axis_sum(mean_terms) + _last_axis_sum(std_terms)
    denom = norms.sum(axis=-1)
    # a (1, n) @ (n, 1) product per row rounds like the 1-D dot product
    weighted = (norms[..., None, :] @ q_vals[..., :, None])[..., 0, 0] / denom
    # a weighted mean of identical values is that value; skip the rounding
    lo = q_vals.min(axis=-1)
    return np.where(lo == q_vals.max(axis=-1), lo, weighted)
