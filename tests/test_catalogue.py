"""The answers to the benchmark's catalogues are pinned.

Every instance of the four ``conebench`` catalogues is solved the way the
benchmark solves it, and the sha256 prefix of the repr of the canonical
answers must not move: a change that alters an answer, a witness or the
order of a cover shows here.  ``conebench/workloads.py`` is loaded from its
file and only read.  The digests do not depend on ``PYTHONHASHSEED``.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "conebench" / "workloads.py"

PINS = {
    "binpack": (120, "098f3ced3058ebae"),
    "stock": (60, "da230e62f6b668c8"),
    "cover": (40, "f5e3d2acbeb8ed5d"),
    "sched-np": (8, "0929678206ac70db"),
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_pinned_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", PINS)
def test_catalogue_answers_are_pinned(workloads, name):
    count, pin = PINS[name]
    answers = [workloads.canonical(workloads.solve_text(workloads.render(d)))
               for d in workloads.catalogue(name, count)]
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()[:16]
    assert digest == pin
