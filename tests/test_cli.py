"""End-to-end tests for the command-line front end."""

import json
import os
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conepack import cli, scheduling
from conepack.errors import InputError
from conepack.geometry import Polytope
from conepack.scheduling import ScheduleSolution
from conepack.solver import PackingSolution


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BP_SMALL = "binpacking\n1\n1/2 3\n"
# window (3, 4) and optimum 3: one probe runs below the window's own cover
BP_OPEN = "binpacking\n2\n1/2 4\n1/4 3\n"
KNAPSACK = "polytope\n3 2\n26 41 200\n-1 0 0\n0 -1 0\n"
# the first polytope of the benchmark's cover catalogue
COVER_FIRST = ("polytope\n9 3\n1 0 0 6\n-1 0 0 0\n0 1 0 7\n0 -1 0 0\n"
               "0 0 1 8\n0 0 -1 0\n1 -5 4 31\n-2 -1 4 5\n-3 1 -1 10\n")
SCHED_PRE = ("scheduling\n3 1 preemptive\n"
             "0 0 0 300 150\n0 1 100 102 1\n0 2 200 202 1\n"
             "2 0 0\n1\n")
SCHED_NP = ("scheduling\n3 1 nonpreemptive\n"
            "0 0 0 300 150\n0 1 100 102 1\n0 2 200 202 1\n"
            "0 2 2\n1\n")
SCHED_TARDY = ("scheduling\n3 1 tardy\n"
               "0 0 0 300 150\n0 1 100 102 1\n0 2 200 202 1\n"
               "1 1 1\n1\n5 7 9\n")
# d = 3: the bound is the fractional optimum rounded up, not an equality
BP_THREE = "binpacking\n3\n1/2 2\n1/3 2\n1/4 2\n"
# an open configuration window: one select_from_generators probe runs
SCHED_NP_OPEN = ("scheduling\n3 2 nonpreemptive\n"
                 "0 0 0 1 1\n0 1 3 4 1\n0 2 1 4 3\n"
                 "1 0 3 5 1\n1 1 0 4 3\n1 2 2 5 2\n"
                 "3 1 3\n3 2\n")
CS_SMALL = "cuttingstock\n2\n1/2 3\n1/3 2\n2\n1 5\n2/3 3\n"
# one unit bin at 3 holds both items, a half bin at 2 holds one
CS_TWO_BINS = "cuttingstock\n1\n1/2 2\n2\n1 3\n1/2 2\n"
HUGE = 10 ** 20


@contextmanager
def returns_within(seconds):
    """Fail, rather than hang, when the block runs longer than ``seconds``."""
    def expire(_signum, _frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Counts, rationals, variants and junk, for random instance files: lines
# of random tokens under a tag, and well-formed files with a few tokens
# replaced or appended and a few lines dropped.
TOKENS = st.one_of(
    st.integers(-1, 3).map(str),
    st.sampled_from(["1/2", "-2/3", "1/0", "1/2/3", "x", str(HUGE),
                     "9" * 5000, "assignment", "preemptive",
                     "nonpreemptive", "tardy"]))
EDITS = st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5),
                           st.one_of(st.none(), TOKENS)), max_size=4)
WELL_FORMED = {"binpacking": BP_OPEN, "cuttingstock": CS_SMALL,
               "scheduling": SCHED_TARDY, "polytope": KNAPSACK}


def edited(text, edits):
    """``text`` with each ``(line, position, token)`` edit applied to the
    lines below its tag: no token drops the line, else the token replaces
    the one at ``position`` or is appended."""
    tag, *lines = [line.split() for line in text.splitlines()]
    for at, pos, token in edits:
        if not lines:
            break
        at %= len(lines)
        if token is None:
            del lines[at]
        elif pos < len(lines[at]):
            lines[at][pos] = token
        else:
            lines[at].append(token)
    return "\n".join(" ".join(line) for line in [tag] + lines) + "\n"


def random_files(kind):
    lines = st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=12)
    return st.one_of(lines.map(lambda ls: "\n".join([kind] + ls) + "\n"),
                     EDITS.map(lambda es: edited(WELL_FORMED[kind], es)))


class TestSolve:
    @pytest.mark.parametrize("text, mode, expected", [
        (BP_SMALL, "faithful",
         '{"bins": [{"count": 1, "pattern": [1]}, {"count": 1, '
         '"pattern": [2]}], "kind": "binpacking", "mode": "faithful", '
         '"opt": 2}'),
        (BP_OPEN, "faithful",
         '{"bins": [{"count": 1, "pattern": [0, 3]}, {"count": 2, '
         '"pattern": [2, 0]}], "kind": "binpacking", "mode": "faithful", '
         '"opt": 3}'),
        (BP_OPEN, "joint",
         '{"bins": [{"count": 1, "pattern": [0, 3]}, {"count": 2, '
         '"pattern": [2, 0]}], "kind": "binpacking", "mode": "joint", '
         '"opt": 3}'),
    ])
    def test_binpacking_json_is_pinned(self, tmp_path, capsys, text, mode,
                                       expected):
        # bin packing solves as cutting stock; its JSON names no bin type.
        # BP_OPEN's window [3, 4] is decided by its group, so both modes
        # answer with the group's cover
        rc, out, _ = run_cli(capsys, "solve", write(tmp_path, "i.txt", text),
                             "--mode", mode)
        assert rc == 0
        assert out == expected + "\n"

    def test_binpacking(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", BP_SMALL))
        assert rc == 0
        doc = json.loads(out)
        assert doc["kind"] == "binpacking"
        assert doc["opt"] == 2
        assert sum(b["count"] * b["pattern"][0] for b in doc["bins"]) == 3

    def test_binpacking_joint_mode(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", BP_SMALL),
                             "--mode", "joint")
        assert rc == 0
        assert json.loads(out)["opt"] == 2

    def test_cuttingstock(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", CS_SMALL))
        assert rc == 0
        doc = json.loads(out)
        assert doc["opt"] == 11
        assert all("bin_type" in b for b in doc["bins"])

    def test_scheduling_preemptive(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", SCHED_PRE))
        assert rc == 0
        doc = json.loads(out)
        assert doc["objective"] == 1
        assert doc["variant"] == "preemptive"
        (machine,) = doc["machines"]
        assert machine["jobs"] == [2, 0, 0]

    def test_scheduling_nonpreemptive(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", SCHED_NP))
        assert rc == 0
        doc = json.loads(out)
        assert doc["objective"] == 1
        assert len(doc["machines"][0]["schedule"]) == 4

    def test_scheduling_tardy(self, tmp_path, capsys):
        """The tight windows force dropping the cheapest job copy."""
        rc, out, _ = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", SCHED_TARDY))
        assert rc == 0
        doc = json.loads(out)
        assert doc["objective"] == 5
        assert doc["scheduled"] == [0, 1, 1]

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, "i.txt", CS_SMALL)
        rc1, out1, _ = run_cli(capsys, "solve", path)
        rc2, out2, _ = run_cli(capsys, "solve", path)
        assert (rc1, out1) == (rc2, out2)

    def test_polytope_has_no_solve(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "p.txt", KNAPSACK))
        assert rc == 2
        assert "cover or hull" in err


class TestParseErrors:
    def test_zero_denominator(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt",
                                   "binpacking\n1\n1/0 3\n"))
        assert rc == 2
        assert "line 3" in err and "denominator" in err

    def test_unknown_kind(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", "knapsack\n1\n"))
        assert rc == 2
        assert "unknown instance kind" in err

    def test_truncated(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", "binpacking\n2\n1/2 1\n"))
        assert rc == 2
        assert "end of file" in err

    def test_trailing_garbage(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt",
                                   "binpacking\n1\n1/2 1\nextra\n"))
        assert rc == 2
        assert "line 4" in err

    @pytest.mark.parametrize("text,lineno", [
        ("binpacking\n2 junk\n1/2 1\n1/3 1\n", 2),
        ("cuttingstock\n1 1\n1/2 1\n1\n1 1\n", 2),
        ("cuttingstock\n1\n1/2 1\n1 x\n1 1\n", 4),
    ])
    def test_trailing_tokens_on_a_count_line(self, tmp_path, capsys, text,
                                             lineno):
        rc, _, err = run_cli(capsys, "solve", write(tmp_path, "i.txt", text))
        assert rc == 2
        assert f"line {lineno}" in err

    @pytest.mark.parametrize("text", [
        "cuttingstock\n1\n1/2 -1\n1\n1 1\n",
        "binpacking\n1\n1/2 -1\n",
    ])
    def test_negative_multiplicity_is_2(self, tmp_path, capsys, text):
        rc, _, err = run_cli(capsys, "solve", write(tmp_path, "i.txt", text))
        assert rc == 2
        assert "non-negative" in err

    def test_empty_file(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", "\n\n"))
        assert rc == 2

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, "solve", "/nonexistent/instance.txt")
        assert rc == 2
        assert "cannot read" in err

    def test_bad_scheduling_variant(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt",
                                   "scheduling\n1 1 bogus\n0 0 0 4 1\n1\n1\n"))
        assert rc == 2

    def test_parses_the_knapsack_text(self):
        text = "polytope\n3 2\n-1 0 0\n0 -1 0\n26 41 200\n"
        assert cli.parse_instance_text(text) == (
            "polytope", Polytope([[-1, 0], [0, -1], [26, 41]], [0, 0, 200]))

    @pytest.mark.parametrize("text", [
        pytest.param("polytope\n", id="polytope-empty"),
        pytest.param("polytope\n2 1\n1 0", id="polytope-missing-row"),
        pytest.param("polytope\n1 2\n1 2\n", id="polytope-short-row"),
        pytest.param("polytope\n1 1\na b\n", id="polytope-not-integers"),
        pytest.param("scheduling\n", id="scheduling-empty"),
        pytest.param("scheduling\n1 1", id="scheduling-short-header"),
        pytest.param("scheduling\n1 1 assignment\n0 0 0 2 1\n1",
                     id="scheduling-missing-cost-line"),
        pytest.param("scheduling\n1 1 sideways\n0 0 0 2 1\n1\n1",
                     id="scheduling-unknown-variant"),
        pytest.param("scheduling\n1 1 assignment\n0 0 0 2 1\n0 0 0 2 1\n"
                     "1\n1", id="scheduling-duplicate"),
        pytest.param("scheduling\n1 1 assignment\n0 5 0 2 1\n1\n1",
                     id="scheduling-index-out-of-range"),
    ])
    def test_malformed_file_is_an_input_error(self, text):
        with pytest.raises(InputError):
            cli.parse_instance_text(text)

    @pytest.mark.parametrize("text,token", [
        pytest.param("binpacking\n1\n1/2 1_0\n", "1_0", id="underscore"),
        pytest.param("binpacking\n1\n1/2 +3\n", "+3", id="plus-sign"),
        pytest.param("binpacking\n\u0661\n\u0661/\u0662 +3\n", "\u0661",
                     id="arabic-indic-count"),
        pytest.param("binpacking\n1\n\u0661/\u0662 3\n", "\u0661/\u0662",
                     id="arabic-indic-rational"),
        pytest.param("binpacking\n1\n1/2_0 3\n", "1/2_0",
                     id="underscore-denominator"),
        pytest.param("polytope\n1 1\n\uff13 2\n", "\uff13",
                     id="full-width-row"),
    ])
    def test_only_ascii_integer_tokens(self, text, token):
        # int() alone would read each of these tokens as a number
        with pytest.raises(InputError,
                           match=rf"^line \d+: .*{re.escape(repr(token))}$"):
            cli.parse_instance_text(text)

    @pytest.mark.parametrize("text,where", [
        pytest.param("binpacking\n\n1\n\n1/2 x\n", "line 5", id="binpacking"),
        pytest.param("cuttingstock\n1\n1/2 1\n\n1\n1 1 1\n", "line 6",
                     id="cuttingstock"),
        pytest.param("polytope\n2 1\n1 x\n-1 0\n", "line 3", id="polytope"),
        pytest.param("polytope\n2 1\n1 1\n\n\n-1 x\n", "line 6",
                     id="polytope-row-after-blank-lines"),
        pytest.param("scheduling\n1 1 preemptive\n0 0 0 4\n1\n1\n", "line 3",
                     id="scheduling-window-line"),
        pytest.param("scheduling\n2 1 preemptive\n0 0 0 4 1\n\n"
                     "0 0 1 4 1\n1 1\n1\n", "line 5",
                     id="scheduling-duplicate"),
        pytest.param("scheduling\n1 1 tardy\n0 0 0 4 1\n1\n1\n1 2\n", "line 6",
                     id="scheduling-penalties"),
        # values are checked by the instance classes, on the lines read
        pytest.param("binpacking\n1\n1/2 -1\n", "lines 2-3",
                     id="negative-multiplicity"),
        pytest.param("cuttingstock\n1\n1/2 1\n1\n0 1\n", "lines 2-5",
                     id="zero-bin-capacity"),
        pytest.param("scheduling\n1 1 preemptive\n0 0 3 2 1\n1\n1\n",
                     "lines 2-5", id="scheduling-empty-window"),
    ])
    def test_message_names_the_line_of_the_file(self, text, where):
        with pytest.raises(InputError, match=f"^{where}: "):
            cli.parse_instance_text(text)

    @pytest.mark.parametrize("text", [
        pytest.param(f"binpacking\n{HUGE}\n1/2 1\n", id="binpacking"),
        pytest.param(f"cuttingstock\n1\n1/2 1\n{HUGE}\n1 1\n",
                     id="cuttingstock"),
        pytest.param(f"polytope\n{HUGE} 1\n1 1\n", id="polytope-rows"),
        pytest.param(f"polytope\n1 {HUGE}\n1 1\n", id="polytope-dimension"),
        pytest.param(f"scheduling\n0 {HUGE} preemptive\n1\n1\n",
                     id="scheduling-no-job-types"),
        pytest.param(f"scheduling\n{HUGE} 0 preemptive\n1\n1\n",
                     id="scheduling-no-machine-types"),
        pytest.param(f"scheduling\n{HUGE} {HUGE} preemptive\n0 0 0 4 1\n"
                     "1\n1\n", id="scheduling-both"),
    ])
    def test_a_huge_count_is_refused_at_once(self, text):
        # every count is at least 1 and the file must hold the lines it
        # announces before anything is sized by it
        with returns_within(5), pytest.raises(InputError,
                                              match=r"^line \d+: "):
            cli.parse_instance_text(text)

    @pytest.mark.parametrize("kind", sorted(WELL_FORMED))
    def test_random_tokens_raise_only_input_errors(self, kind):
        @settings(derandomize=True, deadline=2000, max_examples=300)
        @given(text=random_files(kind))
        def parse(text):
            try:
                cli.parse_instance_text(text)
            except InputError:
                pass

        parse()


class TestHullAndCover:
    def test_hull_vertices(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "hull",
                             write(tmp_path, "p.txt", KNAPSACK))
        assert rc == 0
        verts = [tuple(int(t) for t in ln.split()) for ln in out.splitlines()]
        assert verts == [(0, 0), (0, 4), (1, 4), (6, 1), (7, 0)]

    def test_hull_json(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "hull",
                             write(tmp_path, "p.txt", KNAPSACK), "--json")
        assert rc == 0
        assert [0, 0] in json.loads(out)["vertices"]

    def test_cover_text_sorted(self, tmp_path, capsys):
        path = write(tmp_path, "p.txt", KNAPSACK)
        rc, out, _ = run_cli(capsys, "cover", path)
        assert rc == 0
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert all(ln.startswith("center ") for ln in lines)

    def test_cover_json(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "cover",
                             write(tmp_path, "p.txt", KNAPSACK), "--json")
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["cover"]) >= 1
        assert all("center" in pp and "directions" in pp
                   for pp in doc["cover"])

    def test_hull_rejects_instances(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "hull",
                             write(tmp_path, "i.txt", BP_SMALL))
        assert rc == 2
        assert "hull expects a polytope file" in err

    def test_cover_rejects_instances(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "cover",
                             write(tmp_path, "i.txt", BP_SMALL))
        assert rc == 2
        assert "cover expects a polytope file" in err


class TestVerify:
    def test_binpacking_ok(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", BP_SMALL))
        assert rc == 0
        assert "objective equals brute force: OK" in out
        assert "solver=2 oracle=2" in out
        assert "round-up of the fractional optimum: OK" in out

    def test_binpacking_json(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", BP_SMALL), "--json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(c["ok"] for c in doc["checks"])

    def test_cuttingstock_ok(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", CS_SMALL))
        assert rc == 0
        assert "modes agree: OK" in out

    def test_cuttingstock_with_the_unit_bin_meets_the_oracles(self, tmp_path,
                                                              capsys):
        # the one bin type (1, 1) makes it bin packing, oracles included
        text = "cuttingstock\n2\n1/2 4\n1/4 3\n1\n1 1\n"
        rc, out, _ = run_cli(capsys, "verify", write(tmp_path, "i.txt", text))
        assert rc == 0
        assert "objective equals brute force: OK (solver=3 oracle=3)" in out
        assert ("round-up of the fractional optimum: OK "
                "(opt=3 ceil(frac)=3)") in out

    def test_scheduling_ok(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", SCHED_PRE))
        assert rc == 0
        assert "EDF polytope matches simulator" in out

    def test_binpacking_in_three_types_takes_the_lower_bound(self, tmp_path,
                                                            capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", BP_THREE))
        assert rc == 0
        assert "objective equals brute force: OK (solver=3 oracle=3)" in out
        assert "fractional lower bound: OK (opt=3 ceil(frac)=3)" in out
        assert "round-up" not in out

    def test_nonpreemptive_ok(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", SCHED_NP_OPEN))
        assert rc == 0
        for i in range(2):
            assert (f"cycle polytope matches brute force (machine type {i}): "
                    f"OK (0 disagreements)") in out
        assert "objective equals brute force: OK (solver=8 oracle=8)" in out

    def test_tardy_ok(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", SCHED_TARDY))
        assert rc == 0
        assert "penalty accounting: OK" in out
        assert "objective equals brute force: OK (solver=5 oracle=5)" in out

    def test_a_tardy_answer_one_unit_high_exits_4(self, tmp_path, capsys,
                                                  monkeypatch):
        solve = cli.tardy_min_penalty

        def high(inst):
            sol = solve(inst)
            return replace(sol, objective=sol.objective + 1)

        monkeypatch.setattr(cli, "tardy_min_penalty", high)
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", SCHED_TARDY))
        assert rc == 4
        assert "objective equals brute force: FAIL (solver=6 oracle=5)" in out

    # valid answers one cost unit above the optimum: two half bins at 2
    # where one unit bin at 3 holds both items, and two machines where one
    # runs every job
    @pytest.mark.parametrize("text, entry, high", [
        (CS_TWO_BINS, "cutting_stock", PackingSolution((((1,), 1, 2),), 4)),
        (SCHED_PRE, "preemptive_assign", ScheduleSolution(
            ((0, (1, 0, 0), ((0, 0, 0, 150),)),
             (0, (1, 0, 0), ((0, 0, 0, 150),))), 2)),
        (SCHED_NP, "nonpreemptive_assign", ScheduleSolution(
            ((0, (0, 2, 0), ((1, 0, 100, 101), (1, 1, 101, 102))),
             (0, (0, 0, 2), ((2, 0, 200, 201), (2, 1, 201, 202)))), 2)),
    ], ids=["cuttingstock", "preemptive", "nonpreemptive"])
    def test_an_objective_one_unit_high_exits_4(self, tmp_path, capsys,
                                                monkeypatch, text, entry,
                                                high):
        monkeypatch.setattr(cli, entry, lambda *args, **kwargs: high)
        rc, out, _ = run_cli(capsys, "verify", write(tmp_path, "i.txt", text))
        assert rc == 4
        assert (f"objective equals brute force: FAIL "
                f"(solver={high.objective} oracle={high.objective - 1})") \
            in out
        assert out.count("FAIL") == 1

    # one copy short of the demand at the optimum's cost, and the
    # optimum's one machine reported at two
    @pytest.mark.parametrize("machines, objective", [
        (((0, (1, 0, 0), ((0, 0, 0, 150),)),), 1),
        (((0, (2, 0, 0), ((0, 0, 0, 150), (0, 1, 150, 300))),), 2),
    ], ids=["short", "overpriced"])
    def test_machines_off_their_objective_exit_4(self, tmp_path, capsys,
                                                 monkeypatch, machines,
                                                 objective):
        monkeypatch.setattr(cli, "preemptive_assign", lambda *args, **kwargs:
                            ScheduleSolution(machines, objective))
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", SCHED_PRE))
        assert rc == 4
        assert "machines meet the demand at the objective's cost: FAIL" in out

    @pytest.mark.parametrize("text", [
        CS_TWO_BINS.replace("1/2 2\n2", "1/2 13\n2"),
        SCHED_PRE.replace("2 0 0", "13 0 0"),
    ], ids=["cuttingstock", "preemptive"])
    def test_a_demand_past_the_oracle_cap_is_3(self, tmp_path, capsys, text):
        rc, out, err = run_cli(capsys, "verify",
                               write(tmp_path, "i.txt", text))
        assert rc == 3
        assert "'exact cover brute force' exceeded (limit 12)" in err
        assert "demand of 13 items" in err

    def test_polytope_ok(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "p.txt", KNAPSACK))
        assert rc == 0
        assert "parallelepiped cover verifies: OK" in out

    def test_polytope_hull_matches_the_lattice_hull(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "p.txt", COVER_FIRST))
        assert rc == 0
        assert re.search(r"^hull equals the hull of the lattice: OK "
                         r"\((\d+) and \1 vertices\)$", out, re.M), out

    def test_a_hull_missing_a_vertex_exits_4(self, tmp_path, capsys,
                                             monkeypatch):
        hull = cli.integer_hull_vertices
        monkeypatch.setattr(cli, "integer_hull_vertices",
                            lambda poly: hull(poly)[1:])
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "p.txt", COVER_FIRST))
        assert rc == 4
        assert "hull equals the hull of the lattice: FAIL" in out
        assert "parallelepiped cover verifies: OK" in out

    def test_a_tighter_edf_row_exits_4(self, tmp_path, capsys, monkeypatch):
        # an extra row x0 <= 1 keeps the optimum, two machines of (1, 1),
        # but cuts (2, 0), which the simulator schedules: verify reads the
        # rows the solver probes, not the polytope beside them
        rows_of = scheduling._edf_rows

        def tighter(inst, i):
            rows, rhs = rows_of(inst, i)
            return rows + [(1, 0)], rhs + [1]

        monkeypatch.setattr(scheduling, "_edf_rows", tighter)
        text = "scheduling\n2 1 preemptive\n0 0 0 2 1\n0 1 0 2 1\n2 2\n1\n"
        rc, out, _ = run_cli(capsys, "verify", write(tmp_path, "i.txt", text))
        assert rc == 4
        assert ("EDF polytope matches simulator (machine type 0): FAIL "
                "(1 disagreements)") in out
        assert "objective equals brute force: OK (solver=2 oracle=2)" in out
        assert out.count("FAIL") == 1

    def test_disagreement_exits_4(self, tmp_path, capsys, monkeypatch):
        """A lying oracle must surface as exit code 4, not 0."""
        monkeypatch.setattr(cli, "exact_cover_cost", lambda options, a: 99)
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", BP_SMALL))
        assert rc == 4
        assert "FAIL" in out


class TestExitCodes:
    def test_infeasible_is_1(self, tmp_path, capsys):
        text = "scheduling\n1 1 preemptive\n0 0 0 1 2\n1\n1\n"
        rc, _, err = run_cli(capsys, "solve", write(tmp_path, "i.txt", text))
        assert rc == 1
        assert "fits no machine" in err

    @pytest.mark.parametrize("variant", ["preemptive", "nonpreemptive"])
    def test_infeasible_names_the_type(self, tmp_path, capsys, variant):
        # job type 1 outlasts its window on the one machine type
        text = (f"scheduling\n2 1 {variant}\n0 0 0 2 1\n0 1 0 2 5\n"
                "1 1\n1\n")
        rc, _, err = run_cli(capsys, "solve", write(tmp_path, "i.txt", text))
        assert rc == 1
        assert "type 1 fits no machine" in err

    def test_budget_is_3(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", SCHED_NP),
                             "--budget", "3")
        assert rc == 3
        assert "budget" in err

    def test_huge_machine_list_is_3(self, tmp_path, capsys):
        text = ("scheduling\n2 1 preemptive\n0 0 0 4 2\n0 1 1 5 1\n"
                f"{10 ** 30} {2 * 10 ** 30}\n3\n")
        rc, _, err = run_cli(capsys, "solve", write(tmp_path, "i.txt", text))
        assert rc == 3
        assert err.startswith("resource limit:")

    def test_budget_names_the_work_spent(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", BP_OPEN),
                             "--budget", "5")
        assert rc == 3
        assert "request work budget" in err
        assert " pivots, " in err and " nodes" in err

    def test_budget_zero_is_honoured(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", BP_SMALL),
                             "--budget", "0")
        assert rc == 3
        assert "budget" in err

    @pytest.mark.parametrize("command, text", [("solve", BP_SMALL),
                                               ("verify", KNAPSACK)])
    def test_negative_budget_is_2(self, tmp_path, capsys, command, text):
        rc, _, err = run_cli(capsys, command, write(tmp_path, "i.txt", text),
                             "--budget", "-1")
        assert rc == 2
        assert "--budget" in err

    @pytest.mark.parametrize("command", ["cover", "hull"])
    def test_geometry_commands_take_no_budget(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, write(tmp_path, "p.txt", KNAPSACK),
                      "--budget", "5"])
        assert exc.value.code == 2


def test_console_entry_point(tmp_path):
    """The module runs as a subprocess and round-trips JSON."""
    path = tmp_path / "i.txt"
    path.write_text(BP_SMALL)
    # the subprocess imports the package under test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "conepack.cli", "solve", str(path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["opt"] == 2
