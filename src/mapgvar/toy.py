"""One-state worked example: three actions, q = (2, 1, 100), logits (ln 8, 0, 0).

Everything is computed twice: exactly through the library, and through a
replay of the published reference pipeline that rounds the weight column to
two decimals before taking the baseline. The reference variance triple is
checked where it is attainable; two documented discrepancies in the
reference arithmetic are reported in the output rather than asserted:

  * the counterfactual-baseline variance: one inner term of the reference
    arithmetic prints 2.327 where its own expression gives
    0.1 * 114.49 * 0.64 = 7.32736, dropping 5.000 — the exact figure is
    1020.2464, the reference prints 1015.2466;
  * the optimal-baseline variance's third decimal: replaying the rounding
    pipeline yields 673.111 (exact 673.1097), the reference prints 673.116,
    reachable only through hand-rounded intermediate sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import coma_baseline, ob_surrogate_discrete
from .estimators import EstimatorKind, EstimatorTag, signal_table
from .games import MarkovGame
from .policies import JointPolicy, SoftmaxPolicy, x_measure_softmax
from .values import solve_values
from .variance import expected_score_norm_sq, local_variance, step_moments

TOY_Q = (2.0, 1.0, 100.0)
TOY_LOGITS = (math.log(8.0), 0.0, 0.0)

REFERENCE = {
    "pi": (0.8, 0.1, 0.1),
    "x": (0.1412, 0.4294, 0.4294),
    "coma_baseline": 11.7,
    "advantage": (-9.7, -10.7, 88.3),
    "b_star": 43.71,
    "x_values": (-41.71, -42.71, 56.29),
    "variance_strings": {"none": "1321.007", "coma": "1015.247", "ob": "673.116"},
}

_KIND_BY_NAME = {
    "none": EstimatorTag.CENTRALIZED_VANILLA,
    "coma": EstimatorTag.COMA,
    "ob": EstimatorTag.OB_X,
}


def toy_game() -> MarkovGame:
    """One state with a self-loop, reward TOY_Q, gamma 0 and beta max |q|."""
    return MarkovGame(
        n_agents=1,
        states=("s0",),
        action_spaces=(("a0", "a1", "a2"),),
        transition=np.ones((1, 3, 1)),
        reward=np.array([TOY_Q]),
        beta=max(map(abs, TOY_Q)),
        gamma=0.0,
        initial_dist=np.array([1.0]),
    )


def toy_policy() -> JointPolicy:
    return JointPolicy((SoftmaxPolicy(np.array([TOY_LOGITS])),))


@dataclass
class ToyReport:
    pi: np.ndarray
    x: np.ndarray
    coma_b: float
    advantage: np.ndarray
    b_star_exact: float
    x_exact: np.ndarray
    x_rounded: np.ndarray
    b_star_rounded: float
    x_values_rounded: np.ndarray
    variances: dict  # name -> exact float (moment route)
    variances_direct: dict  # name -> exact float (enumeration route)
    ob_replay_variance: float  # variance at the rounded baseline 43.71
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    CSV_HEADER = ("action", "logit", "pi", "x", "q", "advantage", "x_value",
                  "x_value_rounded")

    @property
    def passed(self) -> bool:
        return all(entry["passed"] for entry in self.checks)

    def to_csv_rows(self) -> list[tuple]:
        return [
            (
                a,
                repr(float(TOY_LOGITS[a])),
                repr(float(self.pi[a])),
                repr(float(self.x[a])),
                repr(float(TOY_Q[a])),
                repr(float(self.advantage[a])),
                repr(float(self.x_exact[a])),
                f"{float(self.x_values_rounded[a]):.2f}",
            )
            for a in range(len(TOY_Q))
        ]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "pi": self.pi.tolist(),
            "x": self.x.tolist(),
            "q": list(TOY_Q),
            "counterfactual_baseline": self.coma_b,
            "advantage": self.advantage.tolist(),
            "optimal_baseline": self.b_star_exact,
            "x_values": self.x_exact.tolist(),
            "x_values_rounded": self.x_values_rounded.tolist(),
            "variances": self.variances,
            "ob_replay_variance": self.ob_replay_variance,
            "checks": self.checks,
            "notes": self.notes,
        }

    def render_text(self) -> str:
        def vec(v, fmt=repr):
            return "[" + ", ".join(fmt(float(z)) for z in v) + "]"

        lines = [
            "one-state example: q = [2, 1, 100], logits = [ln 8, 0, 0], gamma = 0",
            "",
            f"policy pi            = {vec(self.pi)}",
            f"weights x            = {vec(self.x)}",
            f"counterfactual b     = {self.coma_b!r}",
            f"advantage            = {vec(self.advantage)}",
            f"optimal baseline b*  = {self.b_star_exact!r}",
            f"shifted signal X     = {vec(self.x_exact)}",
            "",
            "rounded-weights replay (x to 2 d.p. before the dot product):",
            f"  x_rounded          = {vec(self.x_rounded)}",
            f"  b*_rounded         = {self.b_star_rounded:.2f}",
            f"  X_rounded          = {vec(self.x_values_rounded, fmt=lambda z: f'{z:.2f}')}",
            "",
            "estimator variances (exact, both routes agree to 1e-9):",
        ]
        for name in ("none", "coma", "ob"):
            lines.append(
                f"  {name:<5} {self.variances[name]!r}"
                f"   (enumeration route {self.variances_direct[name]!r})"
            )
        lines += [
            "",
            "replay at published precision: "
            f"none -> {self.variances['none']:.3f}, "
            f"coma -> {self.variances['coma']:.3f}, "
            f"ob at b=43.71 -> {self.ob_replay_variance:.3f}",
            f"reference figures:             none -> "
            f"{REFERENCE['variance_strings']['none']}, "
            f"coma -> {REFERENCE['variance_strings']['coma']}, "
            f"ob -> {REFERENCE['variance_strings']['ob']}",
        ]
        if self.notes:
            lines.append("")
            lines.append("documented reference discrepancies (reported, not gating):")
            for note in self.notes:
                lines.append(f"  - {note}")
        lines.append("")
        lines.append("golden checks:")
        for entry in self.checks:
            status = "PASS" if entry["passed"] else "FAIL"
            lines.append(f"  [{status}] {entry['name']}: {entry['detail']}")
        lines.append("")
        lines.append(
            "overall: " + ("all golden checks pass" if self.passed else "FAILURES above")
        )
        return "\n".join(lines) + "\n"


def run_toy() -> ToyReport:
    game = toy_game()
    policy = toy_policy()
    tables = solve_values(game, policy)
    q_row = tables.q[0]
    pi = policy.probs(0, 0)

    x = x_measure_softmax(pi)
    coma_b = coma_baseline(q_row, pi)
    advantage = q_row - coma_b
    b_star = ob_surrogate_discrete(q_row, pi)
    x_exact = q_row - b_star

    x_rounded = np.round(x, 2)
    b_star_rounded = float(x_rounded @ q_row)
    x_values_rounded = np.round(q_row - round(b_star_rounded, 2), 2)

    variances = {}
    variances_direct = {}
    signals = {"none": q_row, "coma": advantage, "ob": x_exact}
    kinds = [EstimatorKind(tag, 0) for tag in _KIND_BY_NAME.values()]
    sigs = [signal_table(kind, game, policy, tables.q) for kind in kinds]
    for name, m in zip(_KIND_BY_NAME, step_moments(game, policy, 0, sigs)):
        variances[name] = float(m.own[0] + m.others[0])
        variances_direct[name] = local_variance(pi, signals[name])
    ob_replay = local_variance(pi, q_row - round(b_star_rounded, 2))

    report = ToyReport(
        pi=pi,
        x=x,
        coma_b=coma_b,
        advantage=advantage,
        b_star_exact=b_star,
        x_exact=x_exact,
        x_rounded=x_rounded,
        b_star_rounded=b_star_rounded,
        x_values_rounded=x_values_rounded,
        variances=variances,
        variances_direct=variances_direct,
        ob_replay_variance=ob_replay,
    )

    def check(name, passed, detail):
        report.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    check(
        "policy probabilities",
        np.allclose(pi, REFERENCE["pi"], atol=1e-15),
        f"pi = {pi.tolist()}",
    )
    check(
        "weight column within 0.005",
        np.allclose(x, REFERENCE["x"], atol=5e-3),
        f"x = {x.tolist()} vs {list(REFERENCE['x'])}",
    )
    check(
        "counterfactual baseline within 1e-9",
        abs(coma_b - REFERENCE["coma_baseline"]) <= 1e-9,
        f"{coma_b!r} vs {REFERENCE['coma_baseline']}",
    )
    check(
        "advantage column within 1e-9",
        np.allclose(advantage, REFERENCE["advantage"], atol=1e-9),
        f"A = {advantage.tolist()}",
    )
    check(
        "optimal baseline (rounded-weights pipeline) within 0.01",
        abs(b_star_rounded - REFERENCE["b_star"]) <= 1e-2
        and f"{b_star_rounded:.2f}" == "43.71",
        f"pipeline {b_star_rounded:.2f} (exact optimum {b_star!r})",
    )
    check(
        "shifted signal (rounded pipeline) within 0.01",
        np.allclose(x_values_rounded, REFERENCE["x_values"], atol=1e-2),
        f"X_rounded = {x_values_rounded.tolist()}",
    )
    check(
        "variance without baseline within 0.5 and string-exact",
        abs(variances["none"] - 1321.007) <= 0.5
        and f"{variances['none']:.3f}" == REFERENCE["variance_strings"]["none"],
        f"{variances['none']!r} -> {variances['none']:.3f}",
    )
    check(
        "variance with optimal baseline within 0.5",
        abs(variances["ob"] - 673.116) <= 0.5,
        f"{variances['ob']!r}",
    )
    check(
        "both variance routes agree to 1e-9",
        all(
            abs(variances[k] - variances_direct[k]) <= 1e-9
            for k in variances
        ),
        "moment route vs enumeration route",
    )
    check(
        "baseline-shift identity to 1e-9",
        abs(
            (variances["none"] - variances["ob"])
            - b_star**2 * expected_score_norm_sq(pi)
        )
        <= 1e-9
        and abs(
            (variances["coma"] - variances["ob"])
            - (coma_b - b_star) ** 2 * expected_score_norm_sq(pi)
        )
        <= 1e-9,
        "Var(b) - Var(b*) = (b - b*)^2 * E[||score||^2] for b in {0, coma}",
    )

    coma_gap = variances["coma"] - 1015.2466
    report.notes.append(
        "counterfactual-baseline variance: exact "
        f"{variances['coma']!r} vs reference 1015.2466 (gap {coma_gap:+.4f}); "
        "one inner term of the reference arithmetic prints 2.327 where its own "
        "expression gives 0.1 * 114.49 * 0.64 = 7.32736"
    )
    report.notes.append(
        "optimal-baseline replay at published rounding prints "
        f"{report.ob_replay_variance:.3f}; the reference prints 673.116 "
        "(hand-rounded intermediate sums); the 0.5-band check above uses the "
        "exact value"
    )
    return report
