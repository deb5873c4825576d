import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from strataglue.cli import main
from strataglue.gluing_engine import linear_model
from strataglue.linear_strata import chain_stratification


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def bounded_memory():
    # in a child: a scan of the power set fails at once with MemoryError
    # instead of filling the host's memory before the timeout
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


class TestGraphs:
    def test_count_example(self):
        code, out, _ = run(["graphs", "enumerate", "0", "4", "--count"])
        assert code == 0
        assert out == "4\n"

    def test_default_listing(self):
        code, out, _ = run(["graphs", "enumerate", "1", "1"])
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_json_listing(self):
        code, out, _ = run(["graphs", "enumerate", "0", "4", "--json"])
        assert code == 0
        assert len(json.loads(out)) == 4

    def test_poset_dot_golden(self):
        first = run(["graphs", "poset", "0", "4", "--dot"])
        second = run(["graphs", "poset", "0", "4", "--dot"])
        assert first == second
        assert first[0] == 0
        assert first[1].startswith("digraph")
        assert "dim=" in first[1]

    def test_negative_signature_rejected(self):
        for argv in (["graphs", "enumerate", "-1", "5", "--count"],
                     ["graphs", "enumerate", "2", "-1", "--count"],
                     ["graphs", "poset", "-1", "5"],
                     ["dm", "report", "2", "-1"]):
            code, out, err = run(argv)
            assert code == 1, argv
            assert out == ""
            assert "nonnegative" in err

    def test_poset_json(self):
        code, out, _ = run(["graphs", "poset", "1", "1", "--json"])
        assert code == 0
        data = json.loads(out)
        assert len(data["elements"]) == 2
        assert data["top"] in (0, 1)


class TestStrataValidate:
    def test_valid_file(self, tmp_path):
        strat = chain_stratification(2)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(strat.to_json()))
        code, out, _ = run(["strata", "validate", str(path)])
        assert code == 0
        assert json.loads(out)["ok"]

    def test_cardinality_mix_rejected(self, tmp_path):
        bad = {"m": 2, "field": "R",
               "classes": [[[]], [[1]], [[2], [1, 2]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(["strata", "validate", str(path)])
        assert code == 1
        report = json.loads(out)
        assert not report["ok"]
        assert any("cardinalities" in v for v in report["violations"])

    @pytest.mark.parametrize("command", [["strata", "validate"],
                                         ["glue", "run"]])
    def test_large_m_fails_at_once(self, tmp_path, command):
        # 2^40 subsets, one listed: run in a child with a timeout, so that
        # a scan of the power set fails the test instead of hanging it
        path = tmp_path / "m40.json"
        path.write_text(json.dumps({"m": 40, "field": "R",
                                    "classes": [[[]]]}))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run(
            [sys.executable, "-m", "strataglue.cli", *command, str(path)],
            env=env, capture_output=True, text=True, timeout=30,
            preexec_fn=bounded_memory)
        assert child.returncode == 1
        assert "%d subsets missing from the partition" % ((1 << 40) - 1) in (
            child.stdout + child.stderr)

    def test_missing_file(self, tmp_path):
        code, _, err = run(["strata", "validate", str(tmp_path / "no.json")])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("m", [-1, 2.5, True])
    def test_m_not_a_nonnegative_int_rejected(self, tmp_path, m):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"m": m, "field": "R",
                                    "classes": [[[]], [[1]], [[2]],
                                                [[1, 2]]]}))
        code, out, err = run(["strata", "validate", str(path)])
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "ok": False,
            "violations": ["m must be a nonnegative integer, not %r" % (m,)]}


@pytest.mark.parametrize("command", [["strata", "validate"], ["glue", "run"]])
@pytest.mark.parametrize("data", [[1, 2], {"m": 2, "classes": 5}])
def test_wrong_json_shape_is_an_error(tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(command + [str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["strata", "validate"], ["glue", "run"]])
def test_index_zero_is_named(tmp_path, command):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"m": 1, "field": "R",
                                "classes": [[[]], [[0]]]}))
    assert run(command + [str(path)]) == (
        1, "", "error: index 0 is not a positive integer\n")


@pytest.mark.parametrize("command", [["strata", "validate"], ["glue", "run"]])
def test_repeated_index_is_named(tmp_path, command):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"m": 1, "field": "R",
                                "classes": [[[]], [[1, 1]]]}))
    assert run(command + [str(path)]) == (
        1, "", "error: index 1 is repeated in a support\n")


@pytest.mark.parametrize("command", [["strata", "validate"], ["glue", "run"]])
def test_huge_index_is_out_of_range_at_once(tmp_path, command):
    """An index of 10^11, whose bit alone would take 12.5 GB, is reported
    as an index of 10^8 is: exit 1 with the same output and no traceback,
    in a child with bounded memory and a timeout."""
    def write(index):
        path = tmp_path / ("index%d.json" % index)
        path.write_text(json.dumps({"m": 1, "field": "R",
                                    "classes": [[[]], [[1]], [[index]]]}))
        return str(path)

    violation = "class 2 contains an out-of-range subset"
    expected = run(command + [write(10 ** 8)])
    assert expected[0] == 1 and violation in expected[1] + expected[2]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-m", "strataglue.cli", *command, write(10 ** 11)],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=bounded_memory)
    assert (child.returncode, child.stdout, child.stderr) == expected


@pytest.mark.parametrize("command", [["strata", "validate"], ["glue", "run"]])
def test_count_too_long_for_decimal_is_a_violation(tmp_path, command):
    path = tmp_path / "m20000.json"
    path.write_text(json.dumps({"m": 20000, "field": "R",
                                "classes": [[[]]]}))
    code, out, err = run(command + [str(path)])
    violation = "2^20000 - 1 subsets missing from the partition"
    assert code == 1
    if command[0] == "strata":
        assert (json.loads(out), err) == (
            {"ok": False, "violations": [violation]}, "")
    else:
        assert (out, err) == ("", "error: %s\n" % violation)


def test_missing_field_is_r_for_both_commands(tmp_path):
    path = tmp_path / "nofield.json"
    path.write_text(json.dumps({"m": 1, "classes": [[[]], [[1]]]}))
    code, out, err = run(["strata", "validate", str(path)])
    assert (code, json.loads(out), err) == (
        0, {"ok": True, "violations": []}, "")
    with_field = tmp_path / "chain1.json"
    with_field.write_text(json.dumps(chain_stratification(1).to_json()))
    certified = run(["glue", "run", str(path)])
    assert certified[0] == 0
    assert certified == run(["glue", "run", str(with_field)])


class TestGlueRun:
    def chain_model_path(self, tmp_path):
        model = linear_model(chain_stratification(2))
        path = tmp_path / "chain2.json"
        path.write_text(json.dumps(model.to_json()))
        return str(path)

    def test_chain_model_golden(self, tmp_path):
        path = self.chain_model_path(tmp_path)
        first = run(["glue", "run", path])
        second = run(["glue", "run", path])
        assert first == second
        code, out, _ = first
        assert code == 0
        assert "passes = 3" in out
        assert "compatible = yes" in out
        assert "separation = yes" in out
        assert "cover = yes" in out

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"m": 1, "field": "X",
                                    "classes": [[[]], [[1]]]}))
        code, out, err = run(["glue", "run", str(path)])
        assert code == 1
        assert out == ""
        assert "unknown ground field 'X'" in err

    @pytest.mark.parametrize("m", [1.5, True, -1])
    def test_m_not_a_nonnegative_int_rejected(self, tmp_path, m):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"m": m, "field": "R",
                                    "classes": [[[]], [[1]]]}))
        assert run(["glue", "run", str(path)]) == (
            1, "", "error: m must be a nonnegative integer, not %r\n" % (m,))

    def test_report_file(self, tmp_path):
        path = self.chain_model_path(tmp_path)
        report = tmp_path / "atlas.json"
        code, _, _ = run(["glue", "run", path, "--report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["all_compatible"]
        assert data["cover"]["ok"]


class TestPlumb:
    def test_example(self):
        code, out, _ = run(["plumb", "--t", "0.0625,0",
                            "--delta", "0.5", "--z", "0.25,0"])
        assert code == 0
        assert out == ("w = 0.25+0i\n"
                       "z lies in the annulus |t|/delta < |z| < delta\n")

    def test_outside_annulus(self):
        code, out, _ = run(["plumb", "--t", "0.0625,0",
                            "--delta", "0.5", "--z", "0.5,0"])
        assert code == 1
        assert "outside" in out

    def test_bad_fixture(self):
        code, _, err = run(["plumb", "--t", "1,0",
                            "--delta", "0.5", "--z", "0.25,0"])
        assert code == 1
        assert "error:" in err


class TestDmReport:
    def test_1_1_golden(self):
        first = run(["dm", "report", "1", "1"])
        second = run(["dm", "report", "1", "1"])
        assert first == second
        code, out, _ = first
        assert code == 0
        data = json.loads(out)
        assert data["ok"]
        assert len(data["classes"]) == 2


class TestUsage:
    def test_missing_action(self):
        code, _, _ = run(["graphs"])
        assert code == 2

    def test_unknown_command(self):
        code, _, _ = run(["frobnicate"])
        assert code == 2


# The package modules a fresh interpreter holds after main runs one command,
# then on a second line the other modules that only the import and the
# command loaded.
IMPORTS_CHILD = """
import io, sys
before = set(sys.modules)
from strataglue.cli import main
code = main(sys.argv[1:], out=io.StringIO(), err=io.StringIO())
print(code, *sorted(name[len("strataglue."):] for name in sys.modules
                    if name.startswith("strataglue.")))
print(*sorted(name for name in set(sys.modules) - before
              if name.split(".")[0] != "strataglue"))
"""

# Start-up costs no command pays: dataclasses alone loads inspect, ast, dis
# and tokenize, and execs generated source for each decorated class.
NOT_AT_START_UP = {"dataclasses", "inspect"}


def test_each_command_imports_only_its_layers(tmp_path):
    strata = tmp_path / "chain1.json"
    strata.write_text(json.dumps(chain_stratification(1).to_json()))
    model = tmp_path / "model1.json"
    model.write_text(json.dumps(
        linear_model(chain_stratification(1)).to_json()))
    expected = {
        ("graphs", "enumerate", "0", "3", "--count"): "stable_graphs",
        ("strata", "validate", str(strata)): "fields linear_strata",
        ("glue", "run", str(model)):
            "fields gluing_engine linear_strata regions",
        ("plumb", "--t", "0.0625,0", "--delta", "0.5", "--z", "0.25,0"):
            "fields plumbing",
        ("dm", "report", "0", "3"):
            "dm_strata fields gluing_engine linear_strata regions "
            "stable_graphs",
    }
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    for argv, layers in expected.items():
        child = subprocess.run(
            [sys.executable, "-c", IMPORTS_CHILD, *argv], env=env,
            capture_output=True, text=True, timeout=60, check=True)
        package, others = child.stdout.splitlines()
        assert package.split() == ["0", "cli", *layers.split()], argv
        assert NOT_AT_START_UP.isdisjoint(others.split()), argv
