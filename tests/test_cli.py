import io
import json

from strataglue.cli import main
from strataglue.gluing_engine import linear_model
from strataglue.linear_strata import chain_stratification


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


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

    def test_missing_file(self, tmp_path):
        code, _, err = run(["strata", "validate", str(tmp_path / "no.json")])
        assert code == 1
        assert "error:" in err


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
