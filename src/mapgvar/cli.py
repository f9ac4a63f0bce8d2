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
import contextlib
import csv
import ctypes
import functools
import glob
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .games import parse_game, random_game, serialize_game
from .policies import check_policy_fits, policy_from_dict, uniform_policy
from .toy import run_toy
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
from .verify import SUITES, run_suites


def _out_dir(args) -> str:
    out = args.out or os.environ.get("MAPGVAR_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _read(path: str, parse):
    """``parse`` applied to the text of the file at ``path``; a ValueError it
    raises (malformed JSON and undecodable bytes included) names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write(path: str, data) -> None:
    """One artifact: text as it is, a dict as a JSON document (indented,
    sorted keys, final newline), anything else as CSV rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if isinstance(data, str):
            fh.write(data)
        elif isinstance(data, dict):
            fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
        else:
            csv.writer(fh, lineterminator="\n").writerows(data)


def _write_table(args, out: str, stem: str, header, rows, doc) -> None:
    """``stem``.csv (``header``, then ``rows()``) or ``stem``.json (``doc()``),
    as --format asks; only the chosen one is built."""
    if args.format == "json":
        _write(os.path.join(out, f"{stem}.json"), doc())
    else:
        _write(os.path.join(out, f"{stem}.csv"), [header, *rows()])


# ---------------------------------------------------------------------------
# toy


def cmd_toy(args) -> int:
    out = _out_dir(args)
    report = run_toy()
    text = report.render_text()
    sys.stdout.write(text)
    _write(os.path.join(out, "toy_report.txt"), text)
    _write_table(args, out, "toy_table", report.CSV_HEADER, report.to_csv_rows,
                 report.to_json_dict)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    out = _out_dir(args)
    seed = 0 if args.seed is None else args.seed
    result = run_suites(args.games, args.agents, seed, args.sabotage)
    rows = []
    for name, entry in result["suites"].items():
        checks, violations = entry["checks"], entry["violations"]
        key = SUITES[name][0] if SUITES[name] else None  # the suite's statistic
        stat = (key, entry[key]) if key else ("", "")
        status = "PASS" if violations == 0 else "FAIL"
        stats = f"{key}={entry[key]!r}" if key else ""
        print(f"[{status}] {name}: {checks} checks, {violations} violations ({stats})")
        rows.append((name, checks, violations, *stat))
    print(
        f"total violations: {result['total_violations']} "
        f"over {result['games']} games"
    )
    _write_table(args, out, "verify_report",
                 ("suite", "checks", "violations", "stat_name", "stat_value"),
                 lambda: rows, lambda: result)
    return 0 if result["ok"] else 1


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    out = _out_dir(args)
    game = _read(args.game, parse_game)

    def fitting_policy(text):
        policy = policy_from_dict(json.loads(text))
        check_policy_fits(game, policy)
        return policy

    if args.policy == "uniform":
        policy = uniform_policy(game)
    else:
        policy = _read(args.policy, fitting_policy)
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
    _write_table(args, out, "variance_report", report.CSV_HEADER, report.to_csv_rows,
                 report.to_json_dict)
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    out = _out_dir(args)
    game = _read(args.game, parse_game)
    if args.config is not None:
        config = _read(args.config, lambda text: config_from_dict(json.loads(text)))
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
    _write(os.path.join(out, "train_history.csv"),
           [history.csv_header, *history.to_csv_rows()])
    _write(os.path.join(out, "train_summary.json"), history.to_json_dict())
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
    _write(os.path.join(out, name), text)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared: argparse gives each
    parse a fresh namespace, so no state passes between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=_int_at_least(0),
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


@functools.cache
def _set_blas_threads_local():
    """``openblas_set_num_threads_local`` of the OpenBLAS that numpy's wheels
    bundle in ``numpy.libs``, or None where numpy has no such library or it
    lacks the symbol."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            fn = ctypes.CDLL(lib).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
        return fn
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread, and the count it had restored afterwards. A
    threaded dense solve rounds differently, so without this the bytes would
    depend on the thread count; where numpy bundles no OpenBLAS with the
    symbol, nothing changes. Despite its name the symbol sets OpenBLAS's one
    process-wide count, so BLAS calls from other threads run on one thread
    meanwhile too."""
    set_local = _set_blas_threads_local()
    previous = set_local(1) if set_local else None
    try:
        yield
    finally:
        if set_local:
            set_local(previous)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        with _one_blas_thread():
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
