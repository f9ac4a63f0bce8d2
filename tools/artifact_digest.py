"""Print one sha256 per CLI artifact over a fixed grid of games and configs.

A byte oracle for refactors: run it against two source trees and diff the
output. Equal lines mean both trees wrote the same bytes, stdout included.

    python3 tools/artifact_digest.py                 # this checkout's src/
    python3 tools/artifact_digest.py --src OTHER/src > other.txt

The grid covers gen, report (CSV, JSON, uniform and random policy files,
every agent, --mc, and a game file whose state and action names need JSON
escaping), verify (1 to 5 agents, and a sabotaged run that must fail), toy
and train (baseline x critic x PPO, plus an entropy bonus, a default horizon
and a TD critic that visits each cell hundreds of times per pass, then three
runs on both sides of the sampler's cost rule).
Every command runs in-process through
``mapgvar.cli.main`` in a temporary directory. Each line is
``<sha256>  <label>/<file>``, where ``stdout`` and ``exit`` (the exit code,
or the exception a command raised) are recorded as files too. Last come
``train_gaussian`` runs, one per baseline, which have no CLI command: their
history and final parameters are hashed as JSON. After them come trains
from config documents that leave keys out, which check the defaults a
document's absent keys take, the checkpoint's config included. Last of all
come invalid inputs (malformed files, out-of-range flags, then wrongly
typed game entries, games that break the contract and unusable policies),
each run also recording its stderr with the temporary directory's path
replaced by ``WORK``, so that two trees' error texts compare byte for byte.
After them comes one ``report --mc`` run of 3000 trajectories on a
45-wide agent, then a 30-game
``verify`` at 2 agents, which with the 3-agent one above covers the bench
corpus's verify runs, and last reports on the edges of the report's paths
(Monte Carlo rows in CSV, gamma = 0, one-action agents, and a ``--t-max``
past every horizon), then ``train_gaussian`` again for agents of 3 and 5
action components and for one agent of 9, and last trains on a 60-state
game whose small batch still samples windows of steps. Last come two
``report --mc`` runs on a 100-state game, 300 parameters wide, whose four
kinds mc_variance spreads over processes. The labels of these three
``report --mc`` runs say ``mc-groups``: they name the kind groups that an
earlier mc_variance made, and they stay, so that the digests of older and
newer trees compare line for line. Then a 13-agent ``verify`` whose
second draw exceeds the coalition-lattice cap must fail with its error
message, after a first draw under the cap. Last of all, a ``gen`` of a
60-state game large enough that serialize_game renders its transition map
in several processes, and a plain ``report`` of the file it wrote. After
it, one line per agent of four grid games: ``exact_policy_gradient`` under
the random policy the reports use, hashed as JSON. Last, two PPO trains on
the 3-state game: one whose clip binds, one on the per-step sampler path,
and a ``report`` of a 40-state game at gamma = 1 - 1e-12, which the value
solve passes and the state-distributions cap refuses. Last, one
``train_gaussian`` run with the sampled optimal baseline at the bench's
Gaussian op's shape: agents of 2 and 2 components, batch 32, 500 samples,
8 iterations.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

# (n_agents, n_states, n_actions, seed): a one-state game and 3-agent games
# beside plain 2-agent ones. A game of one-action agents comes last, in
# _edge_report_lines.
GAMES = ((2, 2, 2, 0), (2, 3, 3, 1), (3, 2, 2, 2), (2, 4, 4, 3), (2, 1, 3, 4),
         (3, 3, 2, 5), (2, 9, 5, 6))
TRAIN_GAMES = GAMES[:3]
BASELINES = ("none", "coma", "ob_surrogate", "ob_exact")


def _digest_dir(path: str) -> list[tuple[str, str]]:
    out = []
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out.append((name, hashlib.sha256(fh.read()).hexdigest()))
    return out


def _run(main, label: str, argv: list[str], work: str,
         stderr: bool = False) -> list[str]:
    """Run one command into a fresh directory; one line per artifact, and
    one for stderr too if ``stderr``."""
    out = os.path.join(work, "runs", label)
    stdout, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(errors if stderr else sys.stderr):
        try:
            code = main([*argv, "--out", out])
        except Exception as exc:  # a crash is an outcome to compare, too
            traceback.print_exc()
            code = f"raised {type(exc).__name__}: {exc}"
    files = _digest_dir(out) if os.path.isdir(out) else []
    texts = [("stdout", stdout.getvalue())]
    if stderr:
        texts.append(("stderr", errors.getvalue().replace(work, "WORK")))
    texts.append(("exit", str(code)))
    files += [(name, hashlib.sha256(text.encode()).hexdigest()) for name, text in texts]
    return [f"{sha}  {label}/{name}" for name, sha in files]


def _train_configs():
    for baseline in BASELINES:
        for critic in ("exact", "td"):
            for ppo in (None, {"eps_clip": 0.2, "epochs": 3}):
                yield {
                    "baseline": baseline,
                    "critic": {"mode": critic, "lr": 0.5, "target_sync_interval": 2},
                    "ppo": ppo,
                    "batch_size": 5,
                    "horizon": 9,
                    "iterations": 3,
                    "actor_lr": 0.3,
                }
    yield {"baseline": "ob_surrogate", "entropy_coef": 0.05, "batch_size": 4,
           "horizon": 6, "iterations": 2}
    yield {"baseline": "coma", "batch_size": 2, "iterations": 1}  # default horizon
    yield {"baseline": "coma", "critic": {"mode": "td", "lr": 0.1}, "batch_size": 8,
           "horizon": 400, "iterations": 2}  # hundreds of TD visits per cell


def _regime_configs():
    """Trains on a 2-agent, 3-state game on both sides of rollout's cost
    rule, which samples windows of steps while (n_agents + 1) * n_states *
    batch_size <= 1024 and one step at a time above it."""
    base = {"baseline": "coma", "critic": {"mode": "td", "lr": 0.2}, "iterations": 2}
    # windows of 128 steps, the last one partial
    yield "window-tail", {**base, "batch_size": 8, "horizon": 2 * 128 + 45, "seed": 4}
    yield "largest-window", {**base, "batch_size": 113, "horizon": 30, "seed": 5}
    yield "smallest-per-step", {**base, "batch_size": 114, "horizon": 30, "seed": 6}


# config documents that leave keys out, so the rest take the defaults
PARTIAL_CONFIGS = (
    {"iterations": 2},
    {"iterations": 2, "critic": {"mode": "td"}},
    {"iterations": 2, "baseline": "coma", "ppo": {"eps_clip": 0.2, "epochs": 2}},
)


def _gaussian_lines(dims=(2, 1), cap=3.0, baselines=("none", "coma", "ob_surrogate"),
                    batch_size=8, iterations=3, ob_n_samples=40) -> list[str]:
    """One line per baseline: train_gaussian on a quadratic payoff clipped
    at -``cap``, for agents of action dims ``dims``; labels name the dims
    unless they are (2, 1), and the run's sizes unless they are the
    defaults."""
    import numpy as np

    from mapgvar import BaselineKind, BaselineTag, TrainConfig
    from mapgvar.training import ContinuousOneStepTask, train_gaussian

    target = np.resize([0.4, -0.3, 1.2], sum(dims))

    def payoff(x):
        cost = ((x - target) ** 2).sum(axis=1) + 0.5 * x[:, 0] * x[:, 2]
        return -np.minimum(cost, cap)

    task = ContinuousOneStepTask(payoff=payoff, dims=dims, beta=cap)
    init = [(np.zeros(d), np.full(d, 0.8)) for d in dims]
    tag = "" if dims == (2, 1) else "-d" + "x".join(map(str, dims))
    if (batch_size, iterations, ob_n_samples) != (8, 3, 40):
        tag += f"-b{batch_size}-i{iterations}-n{ob_n_samples}"
    lines = []
    for baseline in baselines:
        config = TrainConfig(baseline=BaselineKind(BaselineTag(baseline)),
                             actor_lr=0.05, batch_size=batch_size, iterations=iterations,
                             ob_n_samples=ob_n_samples, seed=5)
        try:
            history, params = train_gaussian(task, init, config)
            result = json.dumps({
                "history": history.to_json_dict(),
                "params": [[m.tolist(), s.tolist()] for m, s in params],
            })
        except Exception as exc:
            result = f"raised {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(result.encode()).hexdigest()
        lines.append(f"{digest}  train_gaussian{tag}-{baseline}/result")
    return lines


def _escaped_names_game():
    """A random game renamed with quotes, backslashes and non-ASCII names."""
    from dataclasses import replace

    from mapgvar import random_game

    game = random_game(2, 3, 2, seed=8)
    return replace(game, states=('q"uote', "back\\slash", "\u00fcml\u00e4ut"),
                   action_spaces=(("a\"0", "\u2603"), ("x,y", "tab\t")))


def _error_lines(main, work: str, game_file: str) -> list[str]:
    """One run per invalid input: each must fail with an error message."""
    from mapgvar import random_game, serialize_game

    def write(name: str, text: str) -> str:
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    # a game document is written as text, since a broken game cannot be built
    doc = json.loads(serialize_game(random_game(2, 3, 2, seed=3)))

    def game_with(name: str, **entries) -> str:
        """``doc`` with ``entries`` replaced, laid out as save_game lays it out."""
        return write(name, json.dumps({**doc, **entries}, indent=2) + "\n")

    def game_at(gamma: float) -> str:
        return game_with(f"game-gamma-{gamma!r}.json", gamma=gamma)

    def policy_with(name: str, logits) -> str:
        agents = [{"kind": "softmax", "logits": table} for table in logits]
        return write(name, json.dumps({"schema_version": 1, "agents": agents}))

    policy = policy_with("bad-policy.json", [[[2, 0]]])
    config = write("bad-config.json", json.dumps({"iterations": True}))
    doubled = {s: dict(rows) for s, rows in doc["transition"].items()}
    doubled["s1"]["a1,a0"] = [2 * p for p in doubled["s1"]["a1,a0"]]
    cases = (
        ("malformed-json", ["report", "--game", write("malformed.json", '{"states": [')]),
        ("game-not-object", ["report", "--game", write("list.json", "[]")]),
        ("gamma-one", ["report", "--game", game_at(1.0)]),
        ("gamma-near-one", ["report", "--game", game_at(1 - 1e-9)]),
        ("agent-5", ["report", "--game", game_file, "--agent", "5"]),
        ("policy-misfit", ["report", "--game", game_file, "--policy", policy]),
        ("config-bool", ["train", "--game", game_file, "--config", config]),
        ("mc-1", ["report", "--game", game_file, "--mc", "1"]),
        ("gen-states-0", ["gen", "--states", "0"]),
        ("train-format-json", ["train", "--game", game_file, "--format", "json"]),
        # entries of the wrong type, and games that break the contract
        ("gamma-string", ["report", "--game", game_with("g-str.json", gamma="0.9")]),
        ("n-agents-fraction",
         ["report", "--game", game_with("n-frac.json", n_agents=2.7)]),
        ("beta-bool", ["report", "--game", game_with("beta-bool.json", beta=True)]),
        ("initial-dist-strings", ["report", "--game", game_with(
            "d0-str.json", initial_dist=[repr(p) for p in doc["initial_dist"]])]),
        ("gamma-one-train", ["train", "--game", game_at(1.0)]),
        ("row-doubled", ["report", "--game", game_with("row2.json", transition=doubled)]),
        ("reward-over-beta", ["report", "--game", game_with("beta-half.json", beta=0.5)]),
        ("negative-initial", ["train", "--game", game_with(
            "d0-neg.json", initial_dist=[1.5, -0.5, 0.0])]),
        # policies whose probability table cannot be built, or only with warnings
        ("logits-zero-width", ["report", "--game", game_file, "--policy",
                               policy_with("p-empty.json", [[[], []], [[], []]])]),
        ("logits-overflow", ["report", "--game", game_file, "--policy", policy_with(
            "p-huge.json", [[[1e308, -1e308], [0, 0]], [[0, 0], [0, 0]]])]),
        # integers beyond the float range
        ("beta-int-overflow",
         ["report", "--game", game_with("beta-huge.json", beta=10**400)]),
        ("logit-int-overflow", ["report", "--game", game_file, "--policy", policy_with(
            "p-int-huge.json", [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]])]),
    )
    lines = []
    for label, argv in cases:
        lines += _run(main, f"error-{label}", argv, work, stderr=True)
    return lines


def digest_lines(work: str) -> list[str]:
    import numpy as np

    from mapgvar import random_game, random_softmax_policy, save_game, save_policy
    from mapgvar.cli import main

    lines = []
    lines += _run(main, "toy-csv", ["toy"], work)
    lines += _run(main, "toy-json", ["toy", "--format", "json"], work)
    for agents in (2, 3):
        for fmt in ("csv", "json"):
            lines += _run(main, f"verify-n{agents}-{fmt}",
                          ["verify", "--games", "6", "--agents", str(agents),
                           "--seed", "7", "--format", fmt], work)
    lines += _run(main, "verify-n3-games30", ["verify", "--games", "30", "--agents",
                                              "3", "--format", "json"], work)
    # one agent (no prefix checks), 24 orders, the single-order branch
    for agents in (1, 4, 5):
        lines += _run(main, f"verify-n{agents}-json",
                      ["verify", "--games", "6", "--agents", str(agents),
                       "--seed", "7", "--format", "json"], work)
    # violations and exit 1
    lines += _run(main, "verify-n2-sabotage",
                  ["verify", "--games", "6", "--seed", "7", "--sabotage"], work)

    game_files = {}
    for n, s, k, seed in GAMES:
        label = f"gen-n{n}-s{s}-k{k}-seed{seed}"
        lines += _run(main, label, ["gen", "--agents", str(n), "--states", str(s),
                                    "--actions", str(k), "--seed", str(seed)], work)
        out = os.path.join(work, "runs", label)
        game_files[(n, s, k, seed)] = os.path.join(out, os.listdir(out)[0])

    for key, path in game_files.items():
        n, s, k, seed = key
        policy_file = os.path.join(work, f"policy-{n}-{s}-{k}-{seed}.json")
        game = random_game(n, s, k, seed=seed)
        save_policy(policy_file,
                    random_softmax_policy(game, np.random.default_rng(seed), 2.0))
        stem = f"report-n{n}-s{s}-k{k}-seed{seed}"
        for agent in range(n):
            for policy, tag in (("uniform", "uniform"), (policy_file, "random")):
                for fmt in ("csv", "json"):
                    lines += _run(main, f"{stem}-a{agent}-{tag}-{fmt}",
                                  ["report", "--game", path, "--policy", policy,
                                   "--agent", str(agent), "--t-max", "6",
                                   "--format", fmt], work)
            lines += _run(main, f"{stem}-a{agent}-mc",
                          ["report", "--game", path, "--policy", policy_file,
                           "--agent", str(agent), "--mc", "300", "--seed", "3",
                           "--format", "json"], work)

    escaped = os.path.join(work, "escaped-names.json")
    save_game(_escaped_names_game(), escaped)
    with open(escaped, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    lines.append(f"{digest}  save-escaped-names/game")
    for fmt in ("csv", "json"):
        lines += _run(main, f"report-escaped-names-{fmt}",
                      ["report", "--game", escaped, "--agent", "1", "--t-max", "6",
                       "--format", fmt], work)

    for key in TRAIN_GAMES:
        n, s, k, seed = key
        for c, config in enumerate(_train_configs()):
            config_file = os.path.join(work, f"train-config-{c}.json")
            with open(config_file, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            lines += _run(main, f"train-n{n}-s{s}-k{k}-seed{seed}-c{c}",
                          ["train", "--game", game_files[key], "--config", config_file,
                           "--seed", str(11 + c)], work)
    for label, config in _regime_configs():
        config_file = os.path.join(work, f"train-config-{label}.json")
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        lines += _run(main, f"train-n2-s3-k3-seed1-{label}",
                      ["train", "--game", game_files[(2, 3, 3, 1)], "--config",
                       config_file], work)
    lines += _gaussian_lines()
    for c, config in enumerate(PARTIAL_CONFIGS):
        config_file = os.path.join(work, f"train-config-partial-{c}.json")
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        lines += _run(main, f"train-n2-s3-k3-seed1-partial{c}",
                      ["train", "--game", game_files[(2, 3, 3, 1)], "--config",
                       config_file], work)
    lines += _error_lines(main, work, game_files[(2, 2, 2, 0)])
    # 3000 trajectories of a 45-wide agent, ten times the --mc 300 runs above
    lines += _run(main, "report-n2-s9-k5-seed6-a0-mc-groups",
                  ["report", "--game", game_files[(2, 9, 5, 6)], "--agent", "0",
                   "--mc", "3000", "--seed", "3", "--format", "json"], work)
    # verify at the two agent counts the bench corpus runs, 30 games each
    lines += _run(main, "verify-n2-games30", ["verify", "--games", "30", "--agents",
                                              "2", "--format", "json"], work)
    lines += _edge_report_lines(main, work, game_files)
    # the Gaussian baseline's score norms sum over 3, 5 and 9 action
    # components, the last past numpy's 8-term pairwise block; the cap
    # leaves most of these larger costs unclipped, so q varies
    lines += _gaussian_lines((3, 5), cap=30.0) + _gaussian_lines((9,), cap=30.0)
    lines += _wide_plane_train_lines(main, work)
    lines += _wide_mc_lines(main, work)
    # the first game's lattice holds 3**13 entries per state, under the cap,
    # and the second's 4**13
    lines += _run(main, "error-verify-n13-second-draw-refused",
                  ["verify", "--agents", "13", "--games", "5", "--seed", "2"], work,
                  stderr=True)
    lines += _ranged_gen_lines(main, work)
    lines += _gradient_lines()
    lines += _ppo_train_lines(main, work, game_files[(2, 3, 3, 1)])
    lines += _near_one_solve_lines(main, work)
    # the bench's Gaussian op's shape: 16 000 counterfactual rows per payoff call
    lines += _gaussian_lines((2, 2), cap=10.0, baselines=("ob_surrogate",),
                             batch_size=32, iterations=8, ob_n_samples=500)
    return lines


def _ppo_train_lines(main, work: str, game_file: str) -> list[str]:
    """PPO trains on a 2-agent, 3-state game: at eps_clip 0.05 and actor_lr 3,
    where up to 26 of an agent's 54 samples clip in an epoch after the first,
    and at batch_size 114, the smallest batch that rollout samples one step
    at a time."""
    configs = (
        ("clip-binds", {"baseline": "coma", "ppo": {"eps_clip": 0.05, "epochs": 3},
                        "actor_lr": 3.0, "batch_size": 6, "horizon": 9,
                        "iterations": 2, "seed": 4}),
        ("per-step", {"baseline": "ob_surrogate", "ppo": {"eps_clip": 0.2, "epochs": 3},
                      "batch_size": 114, "horizon": 30, "iterations": 2, "seed": 6}),
    )
    lines = []
    for label, config in configs:
        config_file = os.path.join(work, f"train-config-ppo-{label}.json")
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        lines += _run(main, f"train-n2-s3-k3-seed1-ppo-{label}",
                      ["train", "--game", game_file, "--config", config_file], work)
    return lines


def _near_one_solve_lines(main, work: str) -> list[str]:
    """A report on 40 states at gamma = 1 - 1e-12: the value solve stands on
    its backward error, and the report stops at the state-distributions cap."""
    from dataclasses import replace

    from mapgvar import random_game, save_game

    path = os.path.join(work, "game-40-near-one.json")
    save_game(replace(random_game(2, 40, 2, seed=3), gamma=1 - 1e-12), path)
    return _run(main, "error-s40-gamma-near-one", ["report", "--game", path], work,
                stderr=True)


def _gradient_lines() -> list[str]:
    """``exact_policy_gradient`` of every agent of four grid games, 2- and
    3-agent, at the random policy of the reports above."""
    import numpy as np

    from mapgvar import (exact_policy_gradient, random_game, random_softmax_policy,
                         solve_values)

    lines = []
    for n, s, k, seed in (GAMES[0], GAMES[1], GAMES[2], GAMES[5]):
        game = random_game(n, s, k, seed=seed)
        policy = random_softmax_policy(game, np.random.default_rng(seed), 2.0)
        tables = solve_values(game, policy)
        for agent in range(n):
            try:
                result = json.dumps(
                    exact_policy_gradient(game, policy, tables, agent).tolist())
            except Exception as exc:
                result = f"raised {type(exc).__name__}: {exc}"
            digest = hashlib.sha256(result.encode()).hexdigest()
            lines.append(f"{digest}  exact-gradient-n{n}-s{s}-k{k}-seed{seed}/a{agent}")
    return lines


def _ranged_gen_lines(main, work: str) -> list[str]:
    """A gen whose transition map, 57 600 entries, serialize_game renders in
    ranges of states spread over as many processes as the CPU affinity mask
    allows, so its bytes must not depend on it; then a plain report of it."""
    label = "gen-n2-s60-k4-seed13"
    lines = _run(main, label, ["gen", "--agents", "2", "--states", "60", "--actions",
                               "4", "--seed", "13"], work)
    out = os.path.join(work, "runs", label)
    lines += _run(main, "report-n2-s60-k4-seed13",
                  ["report", "--game", os.path.join(out, os.listdir(out)[0])], work)
    return lines


def _wide_plane_train_lines(main, work: str) -> list[str]:
    """Trains on a 60-state game whose batch of 3 still samples windows of
    steps, (2 + 1) * 60 * 3 <= 1024, so each window chases its trajectories
    through a 60-row successor plane; exact and TD critic, PPO off and on."""
    from mapgvar import random_game, save_game

    game_file = os.path.join(work, "wide-plane.json")
    save_game(random_game(2, 60, 2, seed=10), game_file)
    lines = []
    for critic in ("exact", "td"):
        for ppo in (None, {"eps_clip": 0.2, "epochs": 3}):
            config = {"baseline": "ob_surrogate", "critic": {"mode": critic},
                      "ppo": ppo, "batch_size": 3, "horizon": 300, "iterations": 3,
                      "actor_lr": 2.0, "seed": 12}
            label = f"train-n2-s60-k2-seed10-{critic}-{'ppo' if ppo else 'plain'}"
            config_file = os.path.join(work, f"train-config-{label}.json")
            with open(config_file, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            lines += _run(main, label, ["train", "--game", game_file, "--config",
                                        config_file], work)
    return lines


def _wide_mc_lines(main, work: str) -> list[str]:
    """Reports at --mc 200 and --mc 1000 on a 300-wide agent. Its four kinds
    run in as many processes as the CPU affinity mask allows, so these bytes
    must not depend on it. The labels' group sizes are those of an earlier
    mc_variance, kept so that the lines compare across trees."""
    from mapgvar import random_game, save_game

    game_file = os.path.join(work, "mc-groups.json")
    save_game(random_game(2, 100, 3, seed=11), game_file)
    lines = []
    for n_trajectories, suffix in (("200", "3-1"), ("1000", "1-1-1-1")):
        lines += _run(main, f"report-n2-s100-k3-seed11-a0-mc-groups-{suffix}",
                      ["report", "--game", game_file, "--agent", "0", "--mc",
                       n_trajectories, "--seed", "5", "--format", "json"], work)
    return lines


def _edge_report_lines(main, work: str, game_files: dict) -> list[str]:
    """Reports on the edges of the report's paths: Monte Carlo rows in CSV,
    a gamma = 0 game, one-action agents, and a --t-max past every horizon."""
    from dataclasses import replace

    from mapgvar import random_game, save_game

    lines = _run(main, "report-n2-s3-k3-seed1-a1-mc-csv",
                 ["report", "--game", game_files[(2, 3, 3, 1)], "--agent", "1",
                  "--mc", "50", "--seed", "3", "--format", "csv"], work)
    one_step = os.path.join(work, "gamma-zero.json")
    save_game(replace(random_game(2, 3, 2, seed=9), gamma=0.0), one_step)
    lines += _run(main, "report-gamma-zero-mc",
                  ["report", "--game", one_step, "--mc", "50", "--format", "json"], work)
    label = "gen-n2-s3-k1-seed2"
    lines += _run(main, label, ["gen", "--agents", "2", "--states", "3", "--actions",
                                "1", "--seed", "2"], work)
    out = os.path.join(work, "runs", label)
    lines += _run(main, "report-n2-s3-k1-seed2-mc",
                  ["report", "--game", os.path.join(out, os.listdir(out)[0]),
                   "--mc", "50", "--format", "json"], work)
    # t_max, not a horizon (129, 111 and 155 here), sets the table's length
    lines += _run(main, "report-n2-s2-k2-seed0-t-max-3000",
                  ["report", "--game", game_files[(2, 2, 2, 0)], "--t-max", "3000",
                   "--format", "json"], work)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"),
                        help="source tree to import mapgvar from (default: ./src)")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import mapgvar

    if not os.path.abspath(mapgvar.__file__).startswith(src + os.sep):
        print(f"imported mapgvar from {mapgvar.__file__}, not {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        for line in digest_lines(work):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
