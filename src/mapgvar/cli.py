"""Command-line front door: toy, verify, report, train, gen.

Every command is deterministic given --seed and writes byte-stable files;
stdout mentions files only by basename so two runs into different --out
directories produce identical bytes everywhere. Exit codes: 0 success,
1 verification/golden failure, 2 usage error or invalid input, 3 I/O error.

The default output directory is the current one, overridable by --out or
the MAPGVAR_OUT environment variable (the variable configures nothing else).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .games import load_game, parse_game, random_game, serialize_game, validate_game
from .policies import check_policy_fits, load_policy, uniform_policy
from .toy import TOY_LOGITS, TOY_Q, run_toy
from .training import (
    DivergenceError,
    TrainConfig,
    config_from_dict,
    save_checkpoint,
    train,
)
from .values import SingularSystem
from .values import solve_values  # noqa: F401 (bench/test_bench.py reads it)
from .variance import build_variance_report
from .verify import run_suites


def _out_dir(args) -> str:
    out = args.out or os.environ.get("MAPGVAR_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_valid_game(path: str):
    """load_game, then validate_game; ValueError naming the file if either fails."""
    try:
        game = load_game(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    violations = validate_game(game).violations
    if violations:
        raise ValueError(f"{path}: {len(violations)} violation(s): {violations[0]}")
    return game


def _load_game_policy(path: str, game):
    """load_policy, then check_policy_fits; ValueError naming the file if
    either fails."""
    try:
        policy = load_policy(path)
        check_policy_fits(game, policy)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return policy


# ---------------------------------------------------------------------------
# toy


def cmd_toy(args) -> int:
    out = _out_dir(args)
    report = run_toy()
    text = report.render_text()
    sys.stdout.write(text)
    _write_text(os.path.join(out, "toy_report.txt"), text)
    table_rows = [
        (
            a,
            repr(float(TOY_LOGITS[a])),
            repr(float(report.pi[a])),
            repr(float(report.x[a])),
            repr(float(TOY_Q[a])),
            repr(float(report.advantage[a])),
            repr(float(report.x_exact[a])),
            f"{float(report.x_values_rounded[a]):.2f}",
        )
        for a in range(3)
    ]
    if args.format == "csv":
        _write_csv(
            os.path.join(out, "toy_table.csv"),
            ("action", "logit", "pi", "x", "q", "advantage", "x_value", "x_value_rounded"),
            table_rows,
        )
    else:
        _write_json(
            os.path.join(out, "toy_table.json"),
            {
                "schema_version": 1,
                "pi": report.pi.tolist(),
                "x": report.x.tolist(),
                "q": list(TOY_Q),
                "counterfactual_baseline": report.coma_b,
                "advantage": report.advantage.tolist(),
                "optimal_baseline": report.b_star_exact,
                "x_values": report.x_exact.tolist(),
                "x_values_rounded": report.x_values_rounded.tolist(),
                "variances": report.variances,
                "ob_replay_variance": report.ob_replay_variance,
                "checks": report.checks,
                "notes": report.notes,
            },
        )
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    out = _out_dir(args)
    seed = 0 if args.seed is None else args.seed
    result = run_suites(args.games, args.agents, seed, args.sabotage)
    rows = []
    for name, entry in result["suites"].items():
        # checks, violations, then the suite's statistic if it has one
        (_, checks), (_, violations), *stat = entry.items()
        stats = ", ".join(f"{k}={v!r}" for k, v in stat)
        status = "PASS" if violations == 0 else "FAIL"
        print(f"[{status}] {name}: {checks} checks, {violations} violations ({stats})")
        rows.append((name, checks, violations, *(stat[0] if stat else ("", ""))))
    print(
        f"total violations: {result['total_violations']} "
        f"over {result['games']} games"
    )
    if args.format == "json":
        _write_json(os.path.join(out, "verify_report.json"), result)
    else:
        _write_csv(
            os.path.join(out, "verify_report.csv"),
            ("suite", "checks", "violations", "stat_name", "stat_value"),
            rows,
        )
    return 0 if result["ok"] else 1


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    out = _out_dir(args)
    game = _load_valid_game(args.game)
    if args.policy == "uniform":
        policy = uniform_policy(game)
    else:
        policy = _load_game_policy(args.policy, game)
    rng = np.random.default_rng(0 if args.seed is None else args.seed)
    report = build_variance_report(
        game,
        policy,
        args.agent,
        t_max=args.t_max,
        mc_trajectories=args.mc,
        rng=rng,
    )
    for tag, value in sorted(report.discounted_per_step_sum.items()):
        print(f"{tag}: discounted_per_step_sum = {value!r}")
    if report.mc:
        for tag, entry in sorted(report.mc.items()):
            print(
                f"{tag}: trajectory_draw variance = {entry['estimate']!r} "
                f"(se {entry['se']!r}, n {entry['n']})"
            )
    if args.format == "json":
        _write_json(os.path.join(out, "variance_report.json"), report.to_json_dict())
    else:
        _write_csv(
            os.path.join(out, "variance_report.csv"),
            ("kind", "t", "term", "value"),
            report.to_csv_rows(),
        )
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    out = _out_dir(args)
    game = _load_valid_game(args.game)
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = config_from_dict(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{args.config}: {exc}") from exc
    else:
        config = TrainConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    try:
        result = train(game, None, config)
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        print(json.dumps(exc.report, sort_keys=True), file=sys.stderr)
        return 1
    history = result.history
    n_agents = game.n_agents
    _write_csv(
        os.path.join(out, "train_history.csv"),
        (
            "iteration",
            "expected_return",
            "grad_variance",
            "grad_norm",
            *(f"entropy_agent{i}" for i in range(n_agents)),
        ),
        history.to_csv_rows(),
    )
    _write_json(os.path.join(out, "train_summary.json"), history.to_json_dict())
    save_checkpoint(
        os.path.join(out, "checkpoint.json"),
        config,
        result.policy,
        result.final_rng_state,
    )
    print(f"final expected return: {history.returns[-1]!r}")
    print("wrote train_history.csv, train_summary.json, checkpoint.json")
    return 0


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    out = _out_dir(args)
    seed = 0 if args.seed is None else args.seed
    game = random_game(args.agents, args.states, args.actions, seed=seed)
    text = serialize_game(game)
    if parse_game(text) != game:
        print("generated game failed to round-trip", file=sys.stderr)
        return 1
    name = f"game_n{args.agents}_s{args.states}_k{args.actions}_seed{seed}.json"
    _write_text(os.path.join(out, name), text)
    print(f"wrote {name}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _mc_count(text: str) -> int:
    """argparse type for --mc: 0 skips Monte Carlo; a variance needs >= 2."""
    value = int(text)
    if value < 0 or value == 1:
        raise argparse.ArgumentTypeError(f"must be 0 or >= 2, got {value}")
    return value


_mc_count.__name__ = "int"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="deterministic seed (default 0; for train, the config file wins "
        "unless this is given)",
    )
    common.add_argument(
        "--out", default=None, help="output directory (default: MAPGVAR_OUT or .)"
    )

    parser = argparse.ArgumentParser(
        prog="mapgvar",
        description="exact variance analysis and baselines for multi-agent "
        "policy gradients on finite games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_toy = sub.add_parser(
        "toy", parents=[common], help="reproduce the one-state worked example"
    )
    p_toy.set_defaults(func=cmd_toy)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run identity/bound suites on random games"
    )
    p_verify.add_argument("--games", type=_int_at_least(1), default=50)
    p_verify.add_argument("--agents", type=_int_at_least(1), default=2)
    p_verify.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser(
        "report", parents=[common], help="write a variance report for a game file"
    )
    p_report.add_argument("--game", required=True)
    p_report.add_argument(
        "--policy", default="uniform", help="'uniform' or a policy JSON file"
    )
    p_report.add_argument("--agent", type=int, default=0)
    p_report.add_argument("--t-max", type=_int_at_least(0), default=20)
    p_report.add_argument(
        "--mc", type=_mc_count, default=0, help="Monte-Carlo trajectories (0 = skip)"
    )
    p_report.set_defaults(func=cmd_report)
    for p in (p_toy, p_verify, p_report):  # train and gen write fixed formats
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="artifact format"
        )

    p_train = sub.add_parser(
        "train", parents=[common], help="train tabular actors on a game file"
    )
    p_train.add_argument("--game", required=True)
    p_train.add_argument("--config", default=None, help="TrainConfig JSON file")
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser(
        "gen", parents=[common], help="generate a random game file"
    )
    p_gen.add_argument("--agents", type=_int_at_least(1), default=2)
    p_gen.add_argument("--states", type=_int_at_least(1), default=2)
    p_gen.add_argument("--actions", type=_int_at_least(1), default=2)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    # ValueError includes JSONDecodeError and DegeneratePolicy
    except (ValueError, SingularSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
