"""The benchmark's workloads: inputs made from a seed, operations, output checks.

Every operation is one whole ``mapgvar`` CLI command run in-process through
``mapgvar.cli.main(argv)``, or one ``train_gaussian`` library call. The
program sees only the game, policy and config files written here.

Input sizes are a fixed grid per workload; the seed draws the game contents,
policies, discounts and command seeds. Per-operation cost therefore depends
on the seed only through content, which keeps runs on different seeds
comparable.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable

import numpy as np

from mapgvar import cli, games, policies, training
from mapgvar.baselines import BaselineKind, BaselineTag

KINDS = ("centralized_vanilla", "coma", "decentralized", "ob_x")
TERM_TOL = 1e-9
REPORT_T_MAX = 20
MC_HORIZON_CAP = 200  # build_variance_report's cap; every report-mc game has gamma >= 0.95, so it binds

# (n_agents, n_states, n_actions). Files are 0.05-3.2 MB; larger S pairs with fewer joint actions.
REPORT_GAMES = ((2, 20, 2), (2, 60, 3), (2, 120, 2), (2, 80, 4),
                (3, 20, 3), (3, 40, 2), (3, 30, 4), (3, 50, 3))
# Alternating small (S*k <= 20, the rollout loop dominates) and large dim
# (S*k in the hundreds, the per-trajectory gradient buffer dominates).
MC_GAMES = ((2, 4, 2), (2, 50, 4), (2, 5, 3), (2, 100, 3),
            (3, 3, 2), (3, 25, 4), (2, 2, 4), (2, 80, 4))
MC_TRAJECTORIES = 1000
TRAIN_GAMES = ((2, 4, 2), (3, 6, 3), (2, 6, 3), (3, 3, 2))
TRAIN_GAMMA = 0.98  # default horizon 1220 at beta 1
TRAIN_ITERATIONS = 1
TRAIN_BATCH = 8
GEN_SIZES = ((50, 3), (60, 4), (90, 3), (80, 4))  # n_agents = 2; 0.7-3.2 MB files
VERIFY_AGENTS = (2, 3, 2, 3)
VERIFY_GAMES = 30


@dataclass
class Op:
    """One operation: CLI ``argv`` (``--out`` is appended) or a library ``call``."""

    name: str
    check: Callable  # (out_dir, stdout, value) -> list of problems
    argv: list | None = None
    call: Callable | None = None


@dataclass
class OpResult:
    op: str
    latency_s: float
    problems: list
    digest: str | None
    core_scale: float = 1.0  # set by the runner: see run.reference_kernel

    @property
    def scaled_s(self) -> float:
        """The latency at the reference core speed."""
        return self.latency_s * self.core_scale

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Workload:
    ops: list  # one round, run in order and repeated until the time is up
    warmup: list
    tail_pct: int  # the highest percentile with >= 10 samples beyond it at the usual op count


def execute(op: Op, out_dir: str) -> OpResult:
    """Run one operation on a clean output directory, then check and digest it."""
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    value = None
    # Every op starts from a collected heap, so the garbage earlier ops left
    # behind does not decide when the collector runs inside this one.
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if op.argv is not None:
                code = cli.main([*op.argv, "--out", out_dir])
            else:
                value = op.call()
                code = 0
    except Exception as exc:  # a crashing op is a failed op; the run goes on
        return OpResult(op.name, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"], None)
    latency = time.perf_counter() - start
    if code != 0:
        return OpResult(op.name, latency, [f"exit code {code}: {stderr.getvalue().strip()[:300]}"], None)
    try:
        problems = op.check(out_dir, stdout.getvalue(), value)
    except Exception as exc:  # a missing or malformed artifact fails the op
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return OpResult(op.name, latency, problems, _digest(out_dir, stdout.getvalue(), value))


def _digest(out_dir: str, stdout: str, value) -> str:
    h = hashlib.sha256(stdout.encode())
    if value is not None:
        h.update(json.dumps(value, sort_keys=True).encode())
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# checks


def _check_report(mc_trajectories: int = 0):
    def check(out_dir, stdout, value):
        problems = []
        if os.path.exists(os.path.join(out_dir, "variance_report.json")):
            with open(os.path.join(out_dir, "variance_report.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            per_t = doc["per_timestep"]
            for gap in ("centralized_gap", "coma_gap"):
                if doc[gap]["holds"] is not True:
                    problems.append(f"{gap} does not hold")
            for tag, entry in doc["monte_carlo"].items():
                est, se = entry["trajectory_draw_variance"], entry["standard_error"]
                if not (math.isfinite(est) and math.isfinite(se) and se > 0.0):
                    problems.append(f"{tag}: bad Monte-Carlo estimate {est!r} (se {se!r})")
                if (entry["n"], entry["horizon"]) != (mc_trajectories, MC_HORIZON_CAP):
                    problems.append(f"{tag}: n/horizon {entry['n']}/{entry['horizon']}")
            if mc_trajectories and sorted(doc["monte_carlo"]) != list(KINDS):
                problems.append("Monte-Carlo rows missing")
        else:
            with open(os.path.join(out_dir, "variance_report.csv"), encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            per_t = {}
            for kind, t, term, val in rows:
                if int(t) >= 0:
                    per_t.setdefault(kind, {}).setdefault(term, []).append(float(val))
        if sorted(per_t) != list(KINDS):
            problems.append(f"kinds {sorted(per_t)}")
        for tag, terms in per_t.items():
            if len(terms["variance"]) != REPORT_T_MAX + 1:
                problems.append(f"{tag}: {len(terms['variance'])} timesteps")
            for t, v in enumerate(terms["variance"]):
                parts = terms["state"][t] + terms["others"][t] + terms["own"][t]
                if not abs(parts - v) <= TERM_TOL * max(1.0, abs(v)):
                    problems.append(f"{tag} t={t}: terms sum to {parts!r}, variance {v!r}")
        return problems

    return check


def _check_verify(n_games: int):
    def check(out_dir, stdout, value):
        with open(os.path.join(out_dir, "verify_report.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = []
        if doc["total_violations"] != 0:
            problems.append(f"{doc['total_violations']} violations")
        if doc["games"] != n_games:
            problems.append(f"{doc['games']} games, not {n_games}")
        return problems

    return check


def _check_gen(n_agents: int, n_states: int, n_actions: int, seed: int):
    def check(out_dir, stdout, value):
        name = f"game_n{n_agents}_s{n_states}_k{n_actions}_seed{seed}.json"
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            written = games.parse_game(fh.read())
        if written != games.random_game(n_agents, n_states, n_actions, seed=seed):
            return ["written game differs from random_game"]
        return []

    return check


def _check_train(j_bound: float, iterations: int):
    def check(out_dir, stdout, value):
        with open(os.path.join(out_dir, "train_summary.json"), encoding="utf-8") as fh:
            returns = json.load(fh)["returns"]
        problems = []
        if len(returns) != iterations:
            problems.append(f"{len(returns)} iterations, not {iterations}")
        if not all(math.isfinite(j) and abs(j) <= j_bound for j in returns):
            problems.append(f"returns outside +-{j_bound!r}: {returns!r}")
        training.load_checkpoint(os.path.join(out_dir, "checkpoint.json"))
        if not os.path.exists(os.path.join(out_dir, "train_history.csv")):
            problems.append("train_history.csv missing")
        return problems

    return check


def _check_gaussian(beta: float):
    def check(out_dir, stdout, value):
        returns = value["returns"]
        if not all(math.isfinite(j) and abs(j) <= beta for j in returns):
            return [f"returns outside +-{beta!r}: {returns!r}"]
        return []

    return check


# ---------------------------------------------------------------------------
# inputs and operations


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write_game(inputs: str, name: str, game) -> str:
    path = os.path.join(inputs, name)
    games.save_game(game, path)
    return path


def _write_policy(inputs: str, name: str, game, rng) -> str:
    path = os.path.join(inputs, name)
    policies.save_policy(path, policies.random_softmax_policy(game, rng))
    return path


def _report_exact(seed: int, inputs: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for g, (n, s, k) in enumerate(REPORT_GAMES):
        game = games.random_game(n, s, k, seed=_seed(rng))
        path = _write_game(inputs, f"game{g}.json", game)
        policy = _write_policy(inputs, f"policy{g}.json", game, rng)
        for agent in range(n):
            fmt = ("csv", "json")[len(ops) % 2]
            ops.append(Op(
                name=f"report:g{g}:n{n}s{s}k{k}:a{agent}:{fmt}",
                argv=["report", "--game", path, "--agent", str(agent),
                      "--policy", "uniform" if agent % 2 == 0 else policy,
                      "--t-max", str(REPORT_T_MAX), "--format", fmt],
                check=_check_report(),
            ))
    return Workload(ops=ops, warmup=ops[:2], tail_pct=90)


def _report_mc(seed: int, inputs: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for g, (n, s, k) in enumerate(MC_GAMES):
        game = games.random_game(n, s, k, seed=_seed(rng))
        game = replace(game, gamma=float(rng.uniform(0.95, 0.99)))
        path = _write_game(inputs, f"game{g}.json", game)
        policy = _write_policy(inputs, f"policy{g}.json", game, rng)
        agent = g % n
        ops.append(Op(
            name=f"report-mc:g{g}:n{n}s{s}k{k}:a{agent}",
            argv=["report", "--game", path, "--agent", str(agent),
                  "--policy", "uniform" if g % 4 < 2 else policy,
                  "--t-max", str(REPORT_T_MAX), "--mc", str(MC_TRAJECTORIES),
                  "--seed", str(_seed(rng)), "--format", "json"],
            check=_check_report(MC_TRAJECTORIES),
        ))
    return Workload(ops=ops, warmup=ops[:1], tail_pct=75)


class QuadraticPayoff:
    """-||x - target||^2, clipped at -beta so that |payoff| <= beta."""

    def __init__(self, target: np.ndarray, beta: float):
        self.target = target
        self.beta = beta

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return -np.minimum(((x - self.target) ** 2).sum(axis=1), self.beta)


def _gaussian_op(rng, index: int) -> Op:
    beta = 10.0
    dims = (2, 2)
    task = training.ContinuousOneStepTask(
        payoff=QuadraticPayoff(rng.uniform(-1.0, 1.0, size=sum(dims)), beta),
        dims=dims,
        beta=beta,
    )
    config = training.TrainConfig(
        baseline=BaselineKind(BaselineTag.OB_SURROGATE),
        actor_lr=0.05,
        batch_size=32,
        iterations=8,
        ob_n_samples=500,
        seed=_seed(rng),
    )
    init = [(np.zeros(d), np.ones(d)) for d in dims]

    def call():
        history, params = training.train_gaussian(task, init, config)
        return {
            "returns": list(history.returns),
            "grad_variance": list(history.grad_variance),
            "params": [[m.tolist(), s.tolist()] for m, s in params],
        }

    return Op(name=f"train_gaussian:{index}", call=call, check=_check_gaussian(beta))


def _train(seed: int, inputs: str) -> Workload:
    rng = np.random.default_rng(seed)
    paths = []
    for g, (n, s, k) in enumerate(TRAIN_GAMES):
        game = replace(games.random_game(n, s, k, seed=_seed(rng)), gamma=TRAIN_GAMMA)
        paths.append((_write_game(inputs, f"game{g}.json", game), game))
    ops = []
    combos = product(("exact", "td"), (None, {"eps_clip": 0.2, "epochs": 4}),
                     ("ob_surrogate", "coma"))
    for c, (critic, ppo, baseline) in enumerate(combos):
        path, game = paths[c % len(paths)]
        config = {"baseline": baseline, "critic": {"mode": critic}, "ppo": ppo,
                  "batch_size": TRAIN_BATCH, "iterations": TRAIN_ITERATIONS,
                  "seed": _seed(rng)}
        config_path = os.path.join(inputs, f"config{c}.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        ops.append(Op(
            name=f"train:c{c}:{critic}:{'ppo' if ppo else 'plain'}:{baseline}:g{c % len(paths)}",
            argv=["train", "--game", path, "--config", config_path],
            check=_check_train(game.beta / (1.0 - game.gamma), TRAIN_ITERATIONS),
        ))
        if c % 4 == 3:
            ops.append(_gaussian_op(rng, c // 4))
    return Workload(ops=ops, warmup=[ops[0], ops[4]], tail_pct=75)  # a train and a train_gaussian op


def _corpus(seed: int, inputs: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for j, ((s, k), agents) in enumerate(zip(GEN_SIZES, VERIFY_AGENTS)):
        gen_seed, verify_seed = _seed(rng), _seed(rng)
        ops.append(Op(
            name=f"gen{j}:n2s{s}k{k}",
            argv=["gen", "--agents", "2", "--states", str(s), "--actions", str(k),
                  "--seed", str(gen_seed)],
            check=_check_gen(2, s, k, gen_seed),
        ))
        ops.append(Op(
            name=f"verify{j}:agents{agents}",
            argv=["verify", "--games", str(VERIFY_GAMES), "--agents", str(agents),
                  "--seed", str(verify_seed), "--format", "json"],
            check=_check_verify(VERIFY_GAMES),
        ))
    return Workload(ops=ops, warmup=ops[:2], tail_pct=75)


WORKLOADS = {
    "report-exact": _report_exact,
    "report-mc": _report_mc,
    "train": _train,
    "corpus": _corpus,
}


def build(name: str, seed: int, inputs: str) -> Workload:
    """Write the workload's input files for ``seed`` into ``inputs``."""
    if os.path.isdir(inputs):
        shutil.rmtree(inputs)
    os.makedirs(inputs)
    return WORKLOADS[name](seed, inputs)
