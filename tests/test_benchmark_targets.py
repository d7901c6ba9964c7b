"""BENCHMARK.json's per-layer targets against the package's public functions.

The benchmark's tracer wraps every public function (no leading underscore,
defined in the module itself) of six modules, and reports ``_linalg`` as
``linalg``. A listed target that the package lacks reads 0, and a public
function that is not listed is traced but not reported; CI's benchmark step
fails on either. These tests check both directions without running the
benchmark, so a renamed function or a helper left public fails here first.
BENCHMARK.json is read, never written.
"""

import importlib
import inspect
import json
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TRACED_MODULES = ("cli", "model", "_linalg", "measures", "sampling", "loops")
# Listed, but defined nowhere since the seed: CI's benchmark step allows these five
# until BENCHMARK.json drops them (ROADMAP item 7), and then so must this set.
QUEUED_FOR_REMOVAL = {
    "loops.enumerate_loops",
    "loops.iter_loops",
    "model.compute_phi",
    "linalg.rel_close",
    "linalg.solve_pd_from_lower",
}
# cli.main is the root span of every op, reported as cli.self_s.
UNLISTED = {"cli.main"}


def _public_functions():
    """``<layer>.<function>`` for each function the tracer wraps, by its rule."""
    names = set()
    for name in TRACED_MODULES:
        module = importlib.import_module(f"infodensity.{name}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                names.add(f"{name.lstrip('_')}.{attr}")
    return names


def _per_layer_names():
    return [metric["name"] for metric in json.loads(SPEC.read_text())["per_layer"]]


def test_every_listed_target_is_a_public_function():
    # A target is what the benchmark runner wraps: the name of every three-part metric less its last part.
    targets = {name.rsplit(".", 1)[0] for name in _per_layer_names() if name.count(".") == 2}
    assert targets - _public_functions() == QUEUED_FOR_REMOVAL


def test_every_public_function_is_listed():
    # The runner reports a traced function only when BENCHMARK.json lists its calls.
    listed = {name.removesuffix(".calls") for name in _per_layer_names() if name.endswith(".calls")}
    assert _public_functions() - listed == UNLISTED
