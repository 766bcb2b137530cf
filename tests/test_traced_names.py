"""Every function the benchmark's tracer patches still exists.

``conebench/tracer.py`` looks each name of its ``TRACED`` table up in the
``conepack`` module of its layer, and ``LP_METHODS`` on ``ExactLp``, when a
traced run starts.  A renamed or deleted function would break only
``conebench/run.py --trace 1``.  So would a dropped result field that the
tracer's ``_info`` reads off a traced call's result.  The tracer is read
with ``ast``, so it is neither imported nor changed here.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from conepack.exactmath import ExactLp
from conepack.ilp import IlpResult
from conepack.solver import IntConeResult

TRACER = Path(__file__).resolve().parent.parent / "conebench" / "tracer.py"


def _tracer():
    return ast.parse(TRACER.read_text(encoding="utf-8"))


def _table(name):
    for node in _tracer().body:
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


# the result type of each traced function whose fields ``_info`` reads
RESULTS = {"int_cone_intersect": IntConeResult, "ilp_feasible": IlpResult}


def _info_reads():
    """``{traced function: result fields read}`` of the branches of
    ``_info`` that test ``name == "<traced function>"``."""
    info = next(node for node in _tracer().body
                if isinstance(node, ast.FunctionDef) and node.name == "_info")
    reads = {}
    for branch in ast.walk(info):
        if not (isinstance(branch, ast.If)
                and isinstance(branch.test, ast.Compare)
                and isinstance(branch.test.comparators[0], ast.Constant)):
            continue
        fields = {node.attr for stmt in branch.body for node in ast.walk(stmt)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "result"}
        if fields:
            reads[branch.test.comparators[0].value] = fields
    return reads


def test_traced_result_fields_exist():
    reads = _info_reads()
    assert reads == {"int_cone_intersect": {"guesses_tried", "mode_used"},
                     "ilp_feasible": {"nodes", "feasible"}}
    missing = [f"{RESULTS[name].__name__}.{field}"
               for name, fields in reads.items() for field in fields
               if field not in {f.name for f in dataclasses.fields(
                   RESULTS[name])}]
    assert not missing
