"""Every function the benchmark's tracer patches still exists.

``conebench/tracer.py`` looks each name of its ``TRACED`` table up in the
``conepack`` module of its layer, and ``LP_METHODS`` on ``ExactLp``, when a
traced run starts.  A renamed or deleted function would break only
``conebench/run.py --trace 1``.  The tables are read with ``ast``, so the
tracer is neither imported nor changed here.
"""

import ast
import importlib
from pathlib import Path

from conepack.exactmath import ExactLp

TRACER = Path(__file__).resolve().parent.parent / "conebench" / "tracer.py"


def _table(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACER}")


def test_traced_functions_resolve():
    missing = [f"conepack.{layer}.{name}"
               for layer, names in _table("TRACED").items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"conepack.{layer}"), name, None))]
    assert not missing


def test_traced_lp_methods_resolve():
    missing = [name for name in _table("LP_METHODS")
               if not callable(getattr(ExactLp, name, None))]
    assert not missing
