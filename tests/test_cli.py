import ctypes
import dataclasses
import glob
import json
import os
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from mapgvar import (
    cli,
    load_checkpoint,
    load_game,
    random_game,
    save_game,
    save_policy,
    uniform_policy,
)
from mapgvar.cli import main


def snapshot(dirpath):
    out = {}
    for name in sorted(os.listdir(dirpath)):
        with open(os.path.join(dirpath, name), "rb") as fh:
            out[name] = fh.read()
    return out


def make_game_file(tmp_path, name="game.json", seed=12):
    out = tmp_path / "gen"
    code = main(
        ["gen", "--agents", "2", "--states", "2", "--actions", "2",
         "--seed", str(seed), "--out", str(out)]
    )
    assert code == 0
    files = os.listdir(out)
    assert len(files) == 1
    return str(out / files[0])


SMALL_TRAIN_CONFIG = {
    "baseline": "ob_surrogate",
    "actor_lr": 0.3,
    "batch_size": 8,
    "iterations": 5,
    "horizon": 4,
    "seed": 0,
}


# ---------------------------------------------------------------------------
# toy


def test_toy_passes_and_writes_files(tmp_path, capsys):
    out = tmp_path / "toy"
    assert main(["toy", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "golden checks" in text
    assert "[FAIL]" not in text
    names = set(os.listdir(out))
    assert names == {"toy_report.txt", "toy_table.csv"}


def test_toy_json_format(tmp_path):
    out = tmp_path / "toy"
    assert main(["toy", "--out", str(out), "--format", "json"]) == 0
    with open(out / "toy_table.json") as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == 1


def test_toy_byte_stable(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["toy", "--out", str(out1)]) == 0
    text1 = capsys.readouterr().out
    assert main(["toy", "--out", str(out2)]) == 0
    text2 = capsys.readouterr().out
    assert text1 == text2
    assert snapshot(out1) == snapshot(out2)


# ---------------------------------------------------------------------------
# verify


def test_verify_small_run_passes(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(
        ["verify", "--games", "6", "--seed", "3", "--format", "json",
         "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "[FAIL]" not in text
    with open(out / "verify_report.json") as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == 1
    assert doc["total_violations"] == 0
    assert doc["ok"] is True
    assert set(doc["suites"]) >= {
        "advantage_decomposition",
        "advantage_variance_identity",
        "advantage_variance_bound",
        "centralized_gap_bound",
        "coma_gap_bound",
        "optimal_baseline_identity",
        "optimal_baseline_scan",
        "excess_variance_bounds",
    }


def test_verify_sabotage_is_caught(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(
        ["verify", "--games", "4", "--seed", "3", "--sabotage",
         "--format", "json", "--out", str(out)]
    )
    assert code == 1
    text = capsys.readouterr().out
    assert "[FAIL]" in text
    with open(out / "verify_report.json") as fh:
        assert json.load(fh)["total_violations"] > 0


def test_verify_byte_stable(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["verify", "--games", "5", "--seed", "11", "--out", str(out1)])
    text1 = capsys.readouterr().out
    main(["verify", "--games", "5", "--seed", "11", "--out", str(out2)])
    text2 = capsys.readouterr().out
    assert text1 == text2
    assert snapshot(out1) == snapshot(out2)


# ---------------------------------------------------------------------------
# gen


def test_gen_round_trips(tmp_path):
    path = make_game_file(tmp_path)
    game = load_game(path)
    assert game.n_agents == 2
    assert game.n_states == 2


def test_gen_byte_stable(tmp_path):
    p1 = make_game_file(tmp_path / "r1", seed=44)
    p2 = make_game_file(tmp_path / "r2", seed=44)
    with open(p1, "rb") as fh1, open(p2, "rb") as fh2:
        assert fh1.read() == fh2.read()


# ---------------------------------------------------------------------------
# report


def test_report_csv_and_json(tmp_path, capsys):
    game_path = make_game_file(tmp_path)
    out = tmp_path / "rep"
    code = main(
        ["report", "--game", game_path, "--agent", "0", "--t-max", "4",
         "--out", str(out)]
    )
    assert code == 0
    assert "discounted_per_step_sum" in capsys.readouterr().out
    assert (out / "variance_report.csv").exists()

    out_json = tmp_path / "repj"
    code = main(
        ["report", "--game", game_path, "--t-max", "4", "--format", "json",
         "--out", str(out_json)]
    )
    assert code == 0
    with open(out_json / "variance_report.json") as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == 1
    assert set(doc["per_timestep"]) == {
        "centralized_vanilla",
        "decentralized",
        "coma",
        "ob_x",
    }


def test_report_with_policy_file_and_mc(tmp_path, capsys):
    game_path = make_game_file(tmp_path)
    game = load_game(game_path)
    pol_path = tmp_path / "policy.json"
    save_policy(pol_path, uniform_policy(game))
    out = tmp_path / "rep"
    code = main(
        ["report", "--game", game_path, "--policy", str(pol_path),
         "--t-max", "3", "--mc", "500", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "trajectory_draw" in text
    with open(out / "variance_report.csv") as fh:
        body = fh.read()
    assert "trajectory_draw_variance" in body



def test_report_on_single_action_agents_is_exactly_zero(tmp_path, capsys):
    # a lone action has a zero score vector, so every estimator kind, the
    # optimal baseline's included, has variance exactly 0
    gen_out = tmp_path / "gen"
    assert main(["gen", "--agents", "2", "--states", "3", "--actions", "1",
                 "--seed", "4", "--out", str(gen_out)]) == 0
    game_path = str(gen_out / os.listdir(gen_out)[0])
    kinds = {"centralized_vanilla", "decentralized", "coma", "ob_x"}
    for agent in ("0", "1"):
        out = tmp_path / f"rep{agent}"
        code = main(["report", "--game", game_path, "--agent", agent,
                     "--t-max", "4", "--mc", "50", "--seed", "1",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        with open(out / "variance_report.json") as fh:
            doc = json.load(fh)
        assert set(doc["per_timestep"]) == kinds
        for kind, terms in doc["per_timestep"].items():
            assert set(terms) == {"variance", "state", "others", "own"}
            for values in terms.values():
                assert values == [0.0] * 5
        assert doc["discounted_per_step_sum"] == dict.fromkeys(kinds, 0.0)
        for mc in doc["monte_carlo"].values():
            assert mc["trajectory_draw_variance"] == mc["standard_error"] == 0.0


def test_report_byte_stable(tmp_path, capsys):
    game_path = make_game_file(tmp_path)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        main(
            ["report", "--game", game_path, "--t-max", "3", "--mc", "400",
             "--seed", "9", "--out", str(out)]
        )
        capsys.readouterr()
        outs.append(snapshot(out))
    assert outs[0] == outs[1]


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a threaded 100-state solve rounds differently, so without the command's
    # one-thread scope the CSV differs under OPENBLAS_NUM_THREADS=2 and =1
    import mapgvar
    from mapgvar.processes import _cpu_count

    if _cpu_count() < 2:
        warnings.warn("one CPU: OpenBLAS caps itself at one thread, so this "
                      "compared one BLAS thread with itself")
    game_path = tmp_path / "game.json"
    save_game(random_game(2, 100, 3, seed=11), game_path)
    outputs = []
    for threads in ("2", "1"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.path.dirname(os.path.dirname(mapgvar.__file__))}
        run = subprocess.run(
            [sys.executable, "-m", "mapgvar", "report", "--game", str(game_path),
             "--agent", "0", "--seed", "5", "--out", str(out)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert run.returncode == 0, run.stderr
        outputs.append((run.stdout, snapshot(out)))
    assert outputs[0] == outputs[1]


def _openblas_get_num_threads():
    """The thread-count getter of the OpenBLAS numpy bundles, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter
    return None


def _fails(args):
    raise ValueError("refused")


@pytest.mark.parametrize("command, code", [(lambda args: 0, 0), (_fails, 2)])
def test_a_command_holds_one_blas_thread_and_restores_the_count(monkeypatch, command, code):
    set_local, get = cli._set_blas_threads_local(), _openblas_get_num_threads()
    if set_local is None or get is None:
        pytest.skip("numpy bundles no OpenBLAS with these symbols")
    seen = []

    def recorded(args):
        seen.append(get())
        return command(args)

    parser = SimpleNamespace(parse_args=lambda argv: SimpleNamespace(func=recorded))
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    outer = set_local(2)
    try:
        before = get()
        if before < 2:
            warnings.warn(f"OpenBLAS kept {before} thread(s) when asked for 2")
        assert main([]) == code
        after = get()
    finally:
        set_local(outer)
    assert seen == [1]
    assert after == before


# ---------------------------------------------------------------------------
# train


def test_train_writes_everything(tmp_path, capsys):
    game_path = make_game_file(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_TRAIN_CONFIG))
    out = tmp_path / "tr"
    code = main(
        ["train", "--game", game_path, "--config", str(cfg_path), "--out", str(out)]
    )
    assert code == 0
    names = set(os.listdir(out))
    assert names == {"train_history.csv", "train_summary.json", "checkpoint.json"}
    cfg, policy, rng_state = load_checkpoint(out / "checkpoint.json")
    assert cfg.iterations == 5
    assert policy.n_agents == 2
    with open(out / "train_summary.json") as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == 1
    assert doc["iterations"] == 5
    with open(out / "train_history.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("iteration,expected_return,grad_variance,grad_norm")
    assert len(lines) == 1 + 5


def test_train_seed_flag_overrides_config(tmp_path):
    game_path = make_game_file(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_TRAIN_CONFIG))
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["train", "--game", game_path, "--config", str(cfg_path),
          "--seed", "77", "--out", str(out1)])
    main(["train", "--game", game_path, "--config", str(cfg_path),
          "--seed", "77", "--out", str(out2)])
    main(["train", "--game", game_path, "--config", str(cfg_path),
          "--out", str(out3)])
    assert snapshot(out1) == snapshot(out2)
    # config seed 0 differs from the flag's 77
    assert snapshot(out1) != snapshot(out3)
    cfg, _, _ = load_checkpoint(out1 / "checkpoint.json")
    assert cfg.seed == 77


def test_train_byte_stable(tmp_path, capsys):
    game_path = make_game_file(tmp_path)
    capsys.readouterr()  # drop the gen command's output
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_TRAIN_CONFIG))
    snaps = []
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert (
            main(["train", "--game", game_path, "--config", str(cfg_path),
                  "--out", str(out)])
            == 0
        )
        texts.append(capsys.readouterr().out)
        snaps.append(snapshot(out))
    assert texts[0] == texts[1]
    assert snaps[0] == snaps[1]


# ---------------------------------------------------------------------------
# plumbing


def test_back_to_back_commands_match_each_run_alone(tmp_path, capsys):
    # one process parses every command with one parser; each run alone is a
    # fresh interpreter, so a flag or default left over from an earlier
    # command shows as different bytes
    import mapgvar

    game_path = make_game_file(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_TRAIN_CONFIG), encoding="utf-8")
    commands = [
        ["report", "--game", game_path, "--t-max", "3", "--agent", "1",
         "--seed", "4", "--mc", "20", "--format", "json"],
        ["report", "--game", game_path, "--t-max", "3"],
        ["train", "--game", game_path, "--config", str(cfg_path), "--seed", "5"],
        ["train", "--game", game_path, "--config", str(cfg_path)],
        ["verify", "--games", "2", "--agents", "3", "--sabotage", "--format", "json"],
        ["verify", "--games", "2"],
    ]
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(mapgvar.__file__))}
    capsys.readouterr()
    for i, argv in enumerate(commands):
        together, alone = tmp_path / f"together{i}", tmp_path / f"alone{i}"
        code = main([*argv, "--out", str(together)])
        stdout = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "mapgvar", *argv, "--out", str(alone)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (code, stdout) == (fresh.returncode, fresh.stdout), argv
        assert snapshot(together) == snapshot(alone), argv


def test_usage_error_exit_code():
    assert main(["report"]) == 2  # --game is required
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("command", ["train", "gen"])
def test_format_is_a_usage_error_for_train_and_gen(tmp_path, capsys, command):
    # both always write the same formats, so the flag would be ignored
    argv = [command, "--format", "json", "--out", str(tmp_path / "out")]
    if command == "train":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_TRAIN_CONFIG), encoding="utf-8")
        argv += ["--game", make_game_file(tmp_path), "--config", str(cfg_path)]
    capsys.readouterr()
    assert main(argv) == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["report", "--mc", "1"], "--mc"),
        (["report", "--mc", "-5"], "--mc"),
        (["report", "--t-max", "-3"], "--t-max"),
        (["verify", "--games", "0"], "--games"),
        (["verify", "--agents", "0"], "--agents"),
        (["gen", "--states", "0"], "--states"),
        # a negative seed is refused by its flag, not by numpy's generator
        (["report", "--seed", "-1"], "--seed"),
        (["gen", "--seed", "-1"], "--seed"),
        (["verify", "--seed", "-1"], "--seed"),
        (["train", "--seed", "-1"], "--seed"),
    ],
)
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, argv, flag):
    if argv[0] in ("report", "train"):
        argv = argv + ["--game", make_game_file(tmp_path)]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    error_lines = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(error_lines) == 1 and f"argument {flag}:" in error_lines[0]
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["report", "--game", str(tmp_path / "missing.json")])
    assert code == 3
    assert "missing.json" in capsys.readouterr().err


def _invalid_input_argv(tmp_path, case):
    game_file = make_game_file(tmp_path)
    if case == "agent out of range":
        return ["report", "--game", game_file, "--agent", "5"]
    if case == "t-max over the cap":
        return ["report", "--game", game_file, "--t-max", "100000000"]
    if case == "verify lattice over the cap":
        return ["verify", "--games", "1", "--agents", "20", "--seed", "3"]
    if case == "verify lattice over the cap after a planned game":
        return ["verify", "--games", "5", "--agents", "13", "--seed", "2"]
    if case == "gen transition over the cap":
        return ["gen", "--states", "100000", "--actions", "1"]
    path = tmp_path / "bad.json"
    if case == "malformed json":
        path.write_text('{"states": ["s0",', encoding="utf-8")
    elif case == "120 states gamma near one":  # valid, and solve_values solves it
        game = random_game(2, 120, 2, seed=3)
        save_game(dataclasses.replace(game, gamma=1 - 1e-7), path)
    elif case.endswith("gamma near one"):  # valid, since gamma < 1
        game = random_game(2, 3, 2, seed=3)
        save_game(dataclasses.replace(game, gamma=1 - 1e-9), path)
    elif case == "zero-width logits":
        policy = {"kind": "softmax", "logits": [[], []]}
        path.write_text(json.dumps({"schema_version": 1, "agents": [policy] * 2}),
                        encoding="utf-8")
        return ["report", "--game", game_file, "--policy", str(path)]
    elif case == "logit beyond float range":  # an integer float() overflows on
        policy = {"kind": "softmax", "logits": [[10**400, 0], [0, 0]]}
        path.write_text(json.dumps({"schema_version": 1, "agents": [policy] * 2}),
                        encoding="utf-8")
        return ["report", "--game", game_file, "--policy", str(path)]
    elif case == "train iterations over the cap":
        path.write_text(json.dumps({"iterations": 10**400}), encoding="utf-8")
        return ["train", "--game", game_file, "--config", str(path)]
    elif case == "beta beyond float range":
        with open(game_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        path.write_text(json.dumps({**doc, "beta": 10**400}, indent=2) + "\n",
                        encoding="utf-8")
    else:  # gamma = 1 has no finite default horizon; no such game can be built
        with open(game_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        path.write_text(json.dumps({**doc, "gamma": 1.0}, indent=2) + "\n",
                        encoding="utf-8")
    command = "train" if case.startswith("train") else "report"
    return [command, "--game", str(path)]


@pytest.mark.parametrize(
    "case, message",
    [
        ("gamma one", "gamma out of [0,1): 1.0"),
        ("train gamma one", "gamma out of [0,1): 1.0"),
        ("malformed json", "bad.json: Expecting value"),
        ("agent out of range", "agent index 5 out of range [0, 2)"),
        # the value solve stands; report's one table runs to the COMA gap's
        # horizon, about 4.1e10 steps
        ("gamma near one",
         "state distributions of 40753385668 rows x 3 states exceed 10000000"),
        # the default horizon is about 4.1e10 steps, refused before allocating
        ("train gamma near one", "horizon 41446532854 x batch_size 32"),
        # report's one table runs to its longest horizon, the COMA gap's, about
        # 3.4e8 steps: a 325 GB table
        ("120 states gamma near one", "338456276 rows x 120 states exceed 10000000"),
        ("t-max over the cap", "100000001 rows x 2 states exceed 10000000"),
        # 3^20 coalition-tensor entries per state, refused before the game is built
        ("verify lattice over the cap", "20 agents holds 3486784401 entries per state"),
        # game 0's lattice holds 3^13 entries per state, under the cap; game
        # 1's 4^13 is refused when drawn, before game 0 is checked
        ("verify lattice over the cap after a planned game",
         "13 agents holds 67108864 entries per state"),
        # S * J * S transition entries, refused before any table is drawn
        ("gen transition over the cap",
         "10000000000 transition entries exceeds the cap of 10000000"),
        # one history row per iteration, refused before the first solve
        ("train iterations over the cap", "0 exceed 10000000 history rows"),
        ("zero-width logits", "logits have shape (2, 0): a state has no action"),
        ("beta beyond float range", "malformed game document: int too large"),
        ("logit beyond float range", "malformed softmax agent: OverflowError"),
    ],
)
def test_invalid_input_is_one_error_line_and_exit_2(tmp_path, capsys, case, message):
    argv = _invalid_input_argv(tmp_path, case)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0  # refused before any large work
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


def test_overflowing_logits_print_only_the_error_line(tmp_path):
    # a row spanning more than the float range; warnings reach stderr only
    # outside pytest's capture, so this runs in a fresh interpreter
    import mapgvar

    policy = tmp_path / "huge.json"
    logits = [[[1e308, -1e308], [0, 0]], [[0, 0], [0, 0]]]
    policy.write_text(json.dumps({"schema_version": 1, "agents": [
        {"kind": "softmax", "logits": table} for table in logits]}), encoding="utf-8")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(mapgvar.__file__))}
    run = subprocess.run(
        [sys.executable, "-m", "mapgvar", "report", "--game", make_game_file(tmp_path),
         "--policy", str(policy), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert run.returncode == 2
    assert run.stderr == "error: 1 - ||pi||^2 = 0.0 on a one-hot row; x-measure undefined\n"


def _game_text(case, game_file):
    with open(game_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    if case == "top-level list":
        return "[]"
    if case == "scalar row":  # one joint action: [0.5] would broadcast to a row
        doc["actions"] = [["x"], ["y"]]
        for table in ("transition", "reward"):
            for state, row in doc[table].items():
                doc[table][state] = {"x,y": next(iter(row.values()))}
        doc["transition"]["s0"]["x,y"] = 0.5
    elif case == "duplicate states":
        doc["states"] = ["s0", "s0"]
    else:  # joint keys "a,b" + "c" and "a" + "b,c" are both "a,b,c"
        doc["actions"] = [["a,b", "a"], ["c", "b,c"]]
        keys = ["a,b,c", "a,b,b,c", "a,c", "a,b,c"]
        for table in ("transition", "reward"):
            for state, row in doc[table].items():
                doc[table][state] = dict(zip(keys, row.values()))
    return json.dumps(doc)


@pytest.mark.parametrize(
    "case, message",
    [
        ("top-level list", "a game document must be a JSON object"),
        ("scalar row", "transition['s0'] must map each joint action to a list of 2"),
        ("duplicate states", "duplicate state names in ['s0', 's0']"),
        ("colliding action keys", "joint actions share the key 'a,b,c'"),
    ],
)
@pytest.mark.parametrize("command", ["report", "train"])
def test_malformed_or_ambiguous_game_files_are_one_error_line(
    tmp_path, capsys, case, message, command
):
    path = tmp_path / "bad.json"
    path.write_text(_game_text(case, make_game_file(tmp_path)), encoding="utf-8")
    capsys.readouterr()
    code = main([command, "--game", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "bad.json" in err
    assert "Traceback" not in err


def _softmax(*tables):
    return [{"kind": "softmax", "logits": t} for t in tables]


TWO_BY_TWO = [[0.0, 1.0], [2.0, 0.0]]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"schema_version": 1, "agents": _softmax([[2, 0]], TWO_BY_TWO)},
         "agent 0 logits have shape (1, 2), the game needs (2, 2)"),
        ({"schema_version": 1, "agents": _softmax(TWO_BY_TWO, TWO_BY_TWO, TWO_BY_TWO)},
         "3 agent(s), the game has 2"),
        ({"schema_version": 1, "agents": _softmax(TWO_BY_TWO)},
         "1 agent(s), the game has 2"),
        ([1], "a policy document must be a JSON object"),
        ({"schema_version": 1}, "a policy document must list its agents"),
        ({"schema_version": 1,
          "agents": [{"kind": "gaussian", "mean": [[0.0]], "std": [[1.0]]},
                     *_softmax(TWO_BY_TWO)]},
         "unknown policy kind 'gaussian'"),
    ],
)
def test_report_rejects_a_policy_that_does_not_fit_the_game(
    tmp_path, capsys, doc, message
):
    game_path = make_game_file(tmp_path)  # 2 agents, 2 states, 2 actions
    pol_path = tmp_path / "policy.json"
    pol_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["report", "--game", game_path, "--policy", str(pol_path),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "policy.json" in err
    assert not (tmp_path / "out" / "variance_report.csv").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "a train config must be a JSON object"),
        ({"critic": "td"}, "'critic' and 'ppo' must be objects"),
        ({"ppo": 5}, "'critic' and 'ppo' must be objects"),
        ({"ppo": {"epochs": 2}}, "config entry 'ppo' needs 'eps_clip'"),
        ({"batch_size": None}, "malformed train config"),
        ({"entropy_coef": float("nan")}, "entropy_coef must be >= 0"),
        ({"actor_lr": float("nan")}, "actor_lr must be positive"),
        # JSON's Infinity, refused when the config is read, not after an update
        ({"actor_lr": float("inf")}, "actor_lr must be positive and finite, got inf"),
        ({"entropy_coef": float("inf")},
         "entropy_coef must be >= 0 and finite, got inf"),
        ({**SMALL_TRAIN_CONFIG, "actor_lr": True},
         "config entry 'actor_lr' must be a real number"),
        ({**SMALL_TRAIN_CONFIG, "entropy_coef": "0.5"},
         "config entry 'entropy_coef' must be a real number"),
        ({**SMALL_TRAIN_CONFIG, "critic": {"lr": True}},
         "config entry 'critic.lr' must be a real number"),
        ({**SMALL_TRAIN_CONFIG, "ppo": {"eps_clip": "0.1", "epochs": 2}},
         "config entry 'ppo.eps_clip' must be a real number"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ],
)
def test_train_rejects_a_malformed_config(tmp_path, capsys, doc, message):
    game_path = make_game_file(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["train", "--game", game_path, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "cfg.json" in err


@pytest.mark.parametrize(
    "doc, name",
    [
        ({"horizon": 1.7}, "horizon"),
        ({"batch_size": 2.9}, "batch_size"),
        ({"iterations": True}, "iterations"),
        ({"seed": 0.5}, "seed"),
        ({"ob_n_samples": 10.25}, "ob_n_samples"),
        ({"critic": {"target_sync_interval": 1.5}}, "critic.target_sync_interval"),
        ({"ppo": {"eps_clip": 0.2, "epochs": False}}, "ppo.epochs"),
        ({"batch_size": "4"}, "batch_size"),
        ({"ppo": {"eps_clip": 0.2, "epochs": "2"}}, "ppo.epochs"),
    ],
)
def test_train_rejects_an_integer_entry_it_would_truncate(tmp_path, capsys, doc, name):
    game_path = make_game_file(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL_TRAIN_CONFIG, **doc}), encoding="utf-8")
    capsys.readouterr()
    code = main(["train", "--game", game_path, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"config entry '{name}' must be an integer" in err and "cfg.json" in err
    assert not (tmp_path / "out" / "train_history.csv").exists()


def test_train_accepts_integral_floats(tmp_path):
    game_path = make_game_file(tmp_path)
    outputs = []
    for cast in (int, float):
        cfg = {key: cast(value) if key in ("batch_size", "horizon", "iterations")
               else value for key, value in SMALL_TRAIN_CONFIG.items()}
        cfg_path = tmp_path / f"cfg-{cast.__name__}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / f"out-{cast.__name__}"
        assert main(["train", "--game", game_path, "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outputs.append((out / "train_history.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_out_dir_is_created_deep(tmp_path):
    out = tmp_path / "x" / "y" / "z"
    assert main(["toy", "--out", str(out)]) == 0
    assert (out / "toy_report.txt").exists()


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("MAPGVAR_OUT", str(target))
    assert main(["toy"]) == 0
    assert (target / "toy_report.txt").exists()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "toy" in capsys.readouterr().out
