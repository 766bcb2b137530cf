"""End-to-end tests for the command-line front end."""

import json
import subprocess
import sys

import pytest

from conepack import cli


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BP_SMALL = "binpacking\n1\n1/2 3\n"
KNAPSACK = "polytope\n3 2\n26 41 200\n-1 0 0\n0 -1 0\n"
SCHED_PRE = ("scheduling\n3 1 preemptive\n"
             "0 0 0 300 150\n0 1 100 102 1\n0 2 200 202 1\n"
             "2 0 0\n1\n")
SCHED_NP = ("scheduling\n3 1 nonpreemptive\n"
            "0 0 0 300 150\n0 1 100 102 1\n0 2 200 202 1\n"
            "0 2 2\n1\n")
SCHED_TARDY = ("scheduling\n3 1 tardy\n"
               "0 0 0 300 150\n0 1 100 102 1\n0 2 200 202 1\n"
               "1 1 1\n1\n5 7 9\n")
CS_SMALL = "cuttingstock\n2\n1/2 3\n1/3 2\n2\n1 5\n2/3 3\n"


class TestSolve:
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

    def test_scheduling_ok(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", SCHED_PRE))
        assert rc == 0
        assert "EDF polytope matches simulator" in out

    def test_tardy_ok(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "i.txt", SCHED_TARDY))
        assert rc == 0
        assert "penalty accounting: OK" in out

    def test_polytope_ok(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "verify",
                             write(tmp_path, "p.txt", KNAPSACK))
        assert rc == 0
        assert "parallelepiped cover verifies: OK" in out

    def test_disagreement_exits_4(self, tmp_path, capsys, monkeypatch):
        """A lying oracle must surface as exit code 4, not 0."""
        monkeypatch.setattr(cli, "bp_brute_force", lambda s, a: 99)
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

    def test_budget_is_3(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", SCHED_NP),
                             "--budget", "3")
        assert rc == 3
        assert "budget" in err

    def test_budget_names_the_work_spent(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "solve",
                             write(tmp_path, "i.txt", BP_SMALL),
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
    proc = subprocess.run(
        [sys.executable, "-m", "conepack.cli", "solve", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["opt"] == 2
