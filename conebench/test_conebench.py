"""Tests of the benchmark itself.

Not part of the repository's test suite (``tests/``); run them with

    python -m pytest conebench

Each test starts ``run.py`` in a child process, the way it is run for real.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# work counts that must repeat exactly for one seed
COUNTERS = ("exactmath.lp_solves", "exactmath.pivots", "ilp.nodes",
            "solver.guesses", "geometry.lattice_points",
            "geometry.cover_cells")


def run(*args, cwd=None):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=600,
                          check=True, cwd=cwd)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS + ["sched-np"])
def test_smoke_prints_every_metric(workload, trace):
    lines, result = run("--workload", workload, "--smoke", "--seconds", "1",
                        "--seed", "3", "--trace", str(trace))
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("# fail_rate 0.0000 ratio (0 failed")
               for line in lines)
    assert any(line.startswith("# env backend=") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_for_one_seed(workload):
    args = ("--workload", workload, "--smoke", "--seed", "5", "--trace", "1")
    first = run(*args)[1]["metrics"]
    second = run(*args)[1]["metrics"]
    for name in COUNTERS:
        assert first[name]["value"] == second[name]["value"], name


def _import(name):
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    try:
        return __import__(name)
    finally:
        del sys.path[:2]


def test_seed_changes_the_order_but_not_the_catalogue():
    workloads = _import("workloads")
    for name in WORKLOADS:
        a = workloads.generate(name, 1, 6)
        assert a == workloads.generate(name, 1, 6)
        b = workloads.generate(name, 2, 6)
        assert a != b and sorted(a) == sorted(b)


def test_quantile_estimates():
    run = _import("run")
    assert abs(run.quantile([1.0, 2.0, 3.0], 0.5) - 2.0) < 1e-9
    assert abs(run.quantile([4.0] * 7, 0.9) - 4.0) < 1e-9
    values = [float(v) for v in range(1, 61)]
    p50 = run.quantile(values, 0.5)
    assert abs(p50 - 30.5) < 1e-6
    tail_s, pct, n = run.tail(values)
    assert n == 60 and abs(pct - 100 * 50 / 60) < 1e-9
    assert 49 < tail_s < 52
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_layer_metrics_from_spans():
    tr = _import("tracer").Tracer()
    # name, layer, start, end, parent, instance, info
    tr.spans = [
        ["bin_packing", "solver", 0.0, 10.0, -1, 0, None],
        ["int_cone_intersect", "solver", 1.0, 9.0, 0, 0, (3, True)],
        ["find_feasible", "exactmath", 1.0, 2.0, 1, 0, (5, False)],
        ["ilp_feasible", "ilp", 3.0, 8.0, 1, 0, (4, True)],
        ["lp_optimize", "exactmath", 3.0, 4.0, 3, 0, None],
        ["find_feasible", "exactmath", 3.0, 4.0, 4, 0, (2, True)],
        ["find_feasible", "exactmath", 5.0, 7.0, 3, 0, (1, True)],
    ]
    m = {name: value for name, (value, _unit) in tr.layer_metrics().items()}
    assert m["solver.self_s"] == 2.0 + 2.0
    assert m["ilp.self_s"] == 2.0
    assert m["exactmath.self_s"] == 1.0 + 1.0 + 2.0
    assert m["exactmath.lp_solves"] == 3
    assert m["exactmath.pivots"] == 8
    assert m["exactmath.infeasible_ratio"] == 1 / 3
    assert m["exactmath.lp_s.solver"] == 1.0
    assert m["exactmath.lp_s.ilp"] == 3.0
    assert m["ilp.bound_lp_s"] == 1.0
    assert m["ilp.node_lp_s"] == 2.0
    assert m["ilp.nodes"] == 4 and m["ilp.feasible_ratio"] == 1.0
    assert m["solver.probes"] == 1 and m["solver.guesses"] == 3
    assert m["solver.faithful_hit_ratio"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "conebench").mkdir()
    for src in HERE.glob("*.py"):
        shutil.copy(src, tmp_path / "conebench")
    done = subprocess.run(
        [sys.executable, "conebench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
