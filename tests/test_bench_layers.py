"""The traced bench run wraps library functions named in ``bench/run.py``'s
``LAYERS``; a name that no longer resolves breaks that run, so check each
one here, reading the list with ``ast`` rather than importing the bench.
A layer also reads zero when the program runs a private twin of the function
it names, so the kernel layers are checked to be reached."""
import ast
import importlib
import os
import sys

import numpy as np

from mapgvar import (
    BaselineKind,
    BaselineTag,
    TrainConfig,
    random_game,
    random_softmax_policy,
    solve_values,
    variance,
    verify,
)
from mapgvar.training import ContinuousOneStepTask, train_gaussian

RUN_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "run.py"
)


def bench_layers():
    """The (module, function) pairs of ``LAYERS`` in bench/run.py."""
    with open(RUN_PY, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts
            ]
    raise AssertionError(f"{RUN_PY} assigns no LAYERS")


def test_every_bench_layer_names_a_library_function():
    layers = bench_layers()
    assert ("cli", "main") in layers
    missing = [
        f"{module}.{name}"
        for module, name in layers
        if not callable(
            getattr(importlib.import_module(f"mapgvar.{module}"), name, None)
        )
    ]
    assert not missing, missing


def test_the_traced_variance_layers_see_the_program(monkeypatch):
    # wrapped as the traced run wraps them: every module attribute bound to
    # the function; one report with --mc, one verify game and one
    # train_gaussian run with the sampled optimal baseline reach them all
    counts = {}
    layers = [
        ("variance", "step_moments"),
        ("variance", "bound_constants"),
        ("variance", "local_variance"),
        ("variance", "mc_variance"),
        ("values", "advantage_decomposition"),
        ("variance", "advantage_variance_identity"),
        ("variance", "advantage_variance_bound"),
        ("baselines", "ob_surrogate_gaussian"),
    ]
    modules = [m for key, m in sys.modules.items() if key.startswith("mapgvar") and m]
    for layer in layers:
        inner = getattr(importlib.import_module(f"mapgvar.{layer[0]}"), layer[1])

        def wrapper(*args, _inner=inner, _layer=layer, **kwargs):
            counts[_layer] = counts.get(_layer, 0) + 1
            return _inner(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is inner:
                    monkeypatch.setattr(module, attr, wrapper)
    game = random_game(2, 2, 2, seed=4)
    policy = random_softmax_policy(game, np.random.default_rng(4))
    variance.build_variance_report(game, policy, 0, t_max=2, mc_trajectories=2)
    rng = np.random.default_rng(4)
    verify.check_game(game, policy, solve_values(game, policy), rng)
    task = ContinuousOneStepTask(
        payoff=lambda x: -np.minimum((x**2).sum(axis=1), 1.0), dims=(1, 1), beta=1.0
    )
    config = TrainConfig(baseline=BaselineKind(BaselineTag.OB_SURROGATE),
                         batch_size=2, iterations=1, ob_n_samples=2)
    train_gaussian(task, [(np.zeros(1), np.ones(1))] * 2, config)
    assert all(counts.get(layer, 0) > 0 for layer in layers), counts
