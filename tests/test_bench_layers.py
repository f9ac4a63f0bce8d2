"""The traced bench run wraps library functions named in ``bench/run.py``'s
``LAYERS``; a name that no longer resolves breaks that run, so check each
one here, reading the list with ``ast`` rather than importing the bench."""
import ast
import importlib
import os

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
