"""End-to-end command-line checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import e0graph
from e0graph import graph
from e0graph.cli import main
from e0graph.coxeter import CoxeterGroup
from e0graph.tables import EXCEPTIONAL_ROWS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_valency_text(capsys):
    code, out, _ = run(capsys, "valency", "-g", "A3")
    assert code == 0
    assert out.strip() == "0^1.1^3.2^1.3^1.4^3"


def test_valency_h3_matches_reference(capsys):
    code, out, _ = run(capsys, "valency", "-g", "H3")
    assert code == 0
    assert out.strip() == "0^1.1^3.2^4.3^5.4^4.5^5.7^2.8^2.9^2.15^3"


def test_valency_i26(capsys):
    code, out, _ = run(capsys, "valency", "-g", "I2(6)")
    assert code == 0
    assert out.strip() == "0^1.1^2.2^2.3^2"


def test_valency_infinite_points_to_ball(capsys):
    code, _, err = run(capsys, "valency", "-g", "U3")
    assert code == 2
    assert "ball" in err


def test_valency_csv_out(capsys, tmp_path):
    path = tmp_path / "dist.csv"
    code, _, _ = run(capsys, "valency", "-g", "I2(5)", "--format", "csv",
                     "--out", str(path))
    assert code == 0
    assert path.read_text() == "valency,count\n0,1\n1,2\n2,2\n"


def test_export_json(capsys, tmp_path):
    path = tmp_path / "a2.json"
    code, _, _ = run(capsys, "export", "-g", "A2", "--format", "json",
                     "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert len(data["vertices"]) == 3 and data["edges"] == [[0, 1]]


def test_export_dot(capsys, tmp_path):
    path = tmp_path / "a3.dot"
    code, _, _ = run(capsys, "export", "-g", "A3", "--format", "dot",
                     "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.count("label=") == 9
    assert text.count("--") == (1 * 3 + 2 * 1 + 3 * 1 + 4 * 3) // 2


def test_export_ball_json(capsys, tmp_path):
    path = tmp_path / "u3.json"
    code, _, _ = run(capsys, "export", "-g", "U3", "--radius", "3",
                     "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["radius"] == 3 and data["group"] == "U3"


def test_diameter_command(capsys):
    code, out, _ = run(capsys, "diameter", "-g", "B3")
    assert code == 0
    assert "diameter of the component away from w0: 3" in out


def test_pendant_command(capsys):
    code, out, _ = run(capsys, "pendant", "-g", "B3")
    assert code == 0
    assert "3 pendant elements" in out and "matches: True" in out


def test_excess_word(capsys):
    # the 4-cycle [1,2,3] is one of the two members of Sym(4) with excess 2
    code, out, _ = run(capsys, "excess", "-g", "A3", "--word", "[1..3]")
    assert code == 0
    assert "= 2" in out
    code, out, _ = run(capsys, "excess", "-g", "A3", "--word", "[1,2]")
    assert code == 0
    assert "= 0" in out


def test_delta_with_oracle(capsys):
    code, out, _ = run(capsys, "delta", "2", "6", "--oracle")
    assert code == 0
    assert "delta(2,6) = 19" in out and "MATCH" in out


def test_ball_evidence(capsys):
    code, out, _ = run(capsys, "ball", "-g", "U2", "--radius", "4", "--evidence")
    assert code == 0
    assert '"diameter_claim": 2' in out


def test_ball_rejects_finite(capsys):
    code, _, err = run(capsys, "ball", "-g", "A3", "--radius", "4")
    assert code == 2 and "finite" in err


def test_cosets_classify(capsys):
    code, out, _ = run(capsys, "cosets", "-g", "D4", "--exclude", "4", "--classify")
    assert code == 0
    assert "case ii" in out and out.count("case i-a") == 3


def test_verify_pass_and_json(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "lem-i2m", "--out", str(path))
    assert code == 0
    assert out.startswith("[PASS] lem-i2m")
    data = json.loads(path.read_text())
    assert data["status"] == "pass" and data["check"] == "lem-i2m"


def test_verify_unknown_name():
    with pytest.raises(SystemExit):
        main(["verify", "nope"])


def test_valency_e6_needs_no_flag(capsys):
    code, out, _ = run(capsys, "valency", "-g", "E6")
    assert code == 0
    assert out.strip() == EXCEPTIONAL_ROWS["E6"]


def test_excess_histogram_heavy_gate(capsys):
    code, _, err = run(capsys, "excess", "-g", "E6")
    assert code == 2 and "--heavy" in err


def test_adjacency_budget_refusal(capsys, monkeypatch):
    monkeypatch.setattr(graph, "ADJACENCY_BUDGET", 8)  # 1 vertex (1 x 1 word); A3 has 9
    code, out, err = run(capsys, "valency", "-g", "A3")
    assert code == 2 and out == ""
    assert "A3 has more than 1 involutions" in err


def test_cosets_heavy_gate(capsys):
    code, _, err = run(capsys, "cosets", "-g", "E6", "--exclude", "1")
    assert code == 2 and "--heavy" in err


def test_graph_path_skips_full_enumeration(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("enumerated the whole group")

    monkeypatch.setattr(CoxeterGroup, "enumerate_perms", refuse)
    for argv in (
        ("valency", "-g", "D5"),
        ("graph", "-g", "D5", "--format", "dot"),
        ("diameter", "-g", "D5"),
        ("pendant", "-g", "D5"),
        ("excess", "-g", "D5", "--word", "[1..3]"),
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv


def test_custom_json_group(capsys, tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, 4], [4, 1]]}))
    code, out, _ = run(capsys, "valency", "-g", str(path))
    assert code == 0
    assert out.strip() == "0^1.1^2.2^2"


def test_module_entry_point_runs_without_warnings():
    # importing the package must not import e0graph.cli, or `python -m
    # e0graph.cli` warns that the module was already in sys.modules
    env = dict(os.environ, PYTHONPATH=str(Path(e0graph.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "e0graph.cli",
         "delta", "1", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
