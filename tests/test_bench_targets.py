"""Every name the benchmark's tracer wraps still exists in the package.

``bench/tracing.py`` patches the functions and methods listed in ``TARGETS``
and its counters read a few result attributes and one positional argument.
The bench's own tests take about a minute and are not collected here, so this
cheap check keeps a renamed or deleted name from breaking ``--trace 1``.
"""
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("module_name, attr", [(t[0], t[1]) for t in TARGETS],
                         ids=[f"{t[0]}:{t[1]}" for t in TARGETS])
def test_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_attributes_read_by_counters():
    from manyminds.minds import ReportCheck, mismatch_probability
    from manyminds.walks import TreeEvent, TreeSpec, WalkResult, build_tree

    assert "size" in {f.name for f in dataclasses.fields(ReportCheck)}
    tree = build_tree(TreeSpec((TreeEvent("a", (0.5, 0.5)), TreeEvent("b", (0.2, 0.3, 0.5)))))
    assert len(tree.paths) == tree.probs.size
    assert {"counts", "total", "tree"} <= {f.name for f in dataclasses.fields(WalkResult)}
    # the trial counter reads the third positional argument
    params = list(inspect.signature(mismatch_probability).parameters)
    assert params[:4] == ["policy", "decomp", "trials", "rng"]
