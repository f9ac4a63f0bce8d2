"""Generated documents through ``mapgvar.cli.main``: whatever a game, policy
or train-config file holds, a run exits 0, or exits 2 with exactly one
``error:`` line; no exception escapes.

Examples are derandomized, so every run draws the same documents.
"""
import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mapgvar import random_game, serialize_game
from mapgvar.cli import main

FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

BASE_GAME = json.loads(serialize_game(random_game(2, 2, 2, seed=1)))  # gamma 0.94


def _paths(node, prefix=()):
    """Every entry of a JSON document, as a key path."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


GAME_PATHS = sorted(_paths(BASE_GAME), key=repr)



def mostly(good, other):
    """``good`` three draws in four, else ``other``."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 0 else good)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# gamma from 0.99 up to 1 - 1e-6 is valid but runs report's state
# distributions for up to DEFAULT_ENUMERATION_CAP entries, seconds per run,
# so it is left to the sized tests
gammas = (
    st.floats(1 - 1e-6, 1.0)
    | st.floats(0.0, 0.99)
    | st.sampled_from([-0.5, 1.5, math.nan, math.inf])
    | json_values
)


@st.composite
def game_documents(draw):
    """The base game with perhaps one entry replaced by any JSON value or
    deleted, and gamma perhaps replaced too."""
    doc = copy.deepcopy(BASE_GAME)
    *parents, key = draw(st.sampled_from(GAME_PATHS))
    node = doc
    for step in parents:
        node = node[step]
    edit = draw(st.sampled_from(["keep", "delete", "replace"]))
    if edit == "delete":
        del node[key]
    elif edit == "replace":
        node[key] = draw(mostly(st.floats(), json_values))
    if draw(st.booleans()):
        doc["gamma"] = draw(gammas)
    return doc


logits = mostly(st.floats(-5, 5), st.sampled_from(
    [1e308, -1e308, math.inf, -math.inf, math.nan, "1", True, None]
))
sizes = st.sampled_from([2, 2, 2, 0, 1, 3])
tables = st.tuples(sizes, sizes).flatmap(
    lambda shape: st.lists(
        st.lists(logits, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)
agents = st.fixed_dictionaries(
    {"kind": mostly(st.just("softmax"), json_values),
     "logits": mostly(tables, json_values)}
)
policy_documents = mostly(
    st.fixed_dictionaries(
        {
            "schema_version": mostly(st.just(1), json_values),
            "agents": mostly(
                sizes.flatmap(lambda n: st.lists(agents, min_size=n, max_size=n)),
                json_values,
            ),
        }
    ),
    json_values,
)

# TrainConfig's keys; iterations, horizon, batch_size and ppo epochs come
# from small ranges or wrong types only, so that every run stays short
wrong = st.sampled_from([True, "2", 1.5, None, [1], {"a": 1}, -1, 0])
reals = mostly(st.floats(), json_values)
config_documents = st.fixed_dictionaries(
    {
        "batch_size": mostly(st.integers(1, 4), wrong),
        "horizon": mostly(st.integers(1, 4) | st.none(), wrong),
        "iterations": mostly(st.integers(1, 2), wrong),
    },
    optional={
        "baseline": mostly(
            st.sampled_from(["none", "coma", "ob_surrogate", "ob_exact"]), json_values
        ),
        "actor_lr": reals,
        "critic": mostly(
            st.fixed_dictionaries(
                {},
                optional={
                    "mode": mostly(st.sampled_from(["exact", "td"]), json_values),
                    "lr": reals,
                    "target_sync_interval": mostly(st.integers(-1, 3), wrong),
                },
            ),
            json_values,
        ),
        "ppo": mostly(
            st.none()
            | st.fixed_dictionaries(
                {"eps_clip": reals, "epochs": mostly(st.integers(0, 2), wrong)}
            ),
            json_values,
        ),
        "seed": mostly(st.integers(), json_values),
        "ob_n_samples": json_values,
        "entropy_coef": reals,
    },
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _exits_cleanly(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    err = err.getvalue()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@FUZZ
@given(doc=game_documents())
def test_report_and_train_on_any_game_document(work, doc):
    game = _write_doc(work / "game.json", doc)
    config = _write_doc(work / "small.json", {"iterations": 1, "horizon": 3,
                                               "batch_size": 2})
    _exits_cleanly(["report", "--game", game, "--t-max", "3"], work / "out")
    _exits_cleanly(["train", "--game", game, "--config", config], work / "out")


@FUZZ
@given(doc=policy_documents)
def test_report_on_any_policy_document(work, doc):
    game = _write_doc(work / "base.json", BASE_GAME)
    policy = _write_doc(work / "policy.json", doc)
    _exits_cleanly(["report", "--game", game, "--policy", policy, "--t-max", "3"],
                   work / "out")


@FUZZ
@given(doc=config_documents)
def test_train_on_any_config_document(work, doc):
    game = _write_doc(work / "base.json", BASE_GAME)
    config = _write_doc(work / "config.json", doc)
    _exits_cleanly(["train", "--game", game, "--config", config], work / "out")
