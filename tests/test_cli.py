"""End-to-end command-line checks."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import e0graph
from e0graph import coxeter, graph
from e0graph.cli import main
from e0graph.coxeter import CoxeterGroup, ToleranceError
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


@pytest.mark.parametrize("fmt", ["dot", "csv"])
def test_export_ball_formats(capsys, fmt):
    # a ball's graph goes through the finite groups' writers
    code, out, _ = run(capsys, "export", "-g", "U2", "--radius", "3", "--format", fmt)
    assert code == 0
    head = {"dot": 'graph "U2" {', "csv": "valency,count"}[fmt]
    assert out.splitlines()[0] == head


@pytest.mark.parametrize("fmt,want", [
    ("dot", ['graph "U3" {', "}"]),
    ("csv", ["valency,count"]),
])
def test_export_empty_ball(capsys, fmt, want):
    # the radius-0 ball is the identity alone: a graph with no vertex
    code, out, _ = run(capsys, "export", "-g", "U3", "--radius", "0", "--format", fmt)
    assert (code, out.strip().splitlines()) == (0, want)


def test_ball_exports_are_pinned(capsys, tmp_path):
    # SHA-256 taken while ball edges came from a Python pair loop
    path = tmp_path / "u3.json"
    code, out, _ = run(capsys, "ball", "-g", "U3", "--radius", "5",
                       "--graph", str(path))
    assert code == 0
    assert out == ("group U3: ball of radius 5 has 94 elements, 21 involutions\n"
                   f"wrote {path}\n")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6397e774bed86dd5cb2f088c5471dbc925a33873de26e73237b27ec3a2b09c0e")
    code, out, _ = run(capsys, "export", "-g", "U3", "--radius", "4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b6d7af35ecec944fe359a83b7816bf9f30b0f2e3c88b3eaa384b45c9b3aeb5fe")


def test_ball_counts_each_element_once(capsys, tmp_path):
    # the growth series gives 443,217; a keyed dedupe once printed 443,219
    path = tmp_path / "h337.json"
    path.write_text(json.dumps({"rank": 3, "m": [[1, 3, 7], [3, 1, 3], [7, 3, 1]]}))
    code, out, _ = run(capsys, "ball", "-g", str(path), "--radius", "24")
    assert code == 0
    assert " has 443217 elements, 868 involutions\n" in out


def test_diameter_command(capsys):
    code, out, _ = run(capsys, "diameter", "-g", "B3")
    assert code == 0
    assert "diameter of the component away from w0: 3" in out


def test_pendant_command(capsys):
    code, out, _ = run(capsys, "pendant", "-g", "B3")
    assert code == 0
    assert "3 pendant elements" in out and "matches: True" in out


# SHA-256 of the `pendant -g E6` output
PENDANT_E6_SHA256 = "047b897e9b09f795fc566cb49bf2d7aa281f48792625dc8d8a04684ec3374a97"


def test_pendant_computes_each_word_once(capsys, monkeypatch):
    calls = []
    lexmin = CoxeterGroup._lexmin_word

    def counted(self, a):
        calls.append(a)
        return lexmin(self, a)

    monkeypatch.setattr(CoxeterGroup, "_lexmin_word", counted)
    code, out, _ = run(capsys, "pendant", "-g", "E6")
    assert code == 0
    assert len(calls) == 6
    assert hashlib.sha256(out.encode()).hexdigest() == PENDANT_E6_SHA256


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
    per = graph.vertex_bytes(CoxeterGroup.from_spec("A3"))
    monkeypatch.setattr(graph, "ADJACENCY_BUDGET", 2 * per - 1)  # 1 vertex; A3 has 9
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


@pytest.mark.parametrize("m,line", [
    ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], "has 64 elements, 9 involutions"),
    ([[1, 3, 7], [3, 1, 3], [7, 3, 1]], "has 104 elements, 13 involutions"),
], ids=["A2~", "337"])
def test_infinite_json_matrices_close_no_roots(capsys, tmp_path, monkeypatch, m, line):
    # no bond is infinite: the cosine form alone routes them to the balls
    def refuse(*args, **kwargs):
        raise AssertionError("a root system was closed")

    monkeypatch.setattr(coxeter, "generate_root_system", refuse)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"rank": 3, "m": m}))
    code, out, _ = run(capsys, "ball", "-g", str(path), "--radius", "6")
    assert code == 0
    assert out == f"group custom(rank=3): ball of radius 6 {line}\n"


def test_finite_json_matrix_fails_loudly(capsys, tmp_path, monkeypatch):
    # a float fault in a finite group's roots is an error, not an infinite group
    def fault(*args, **kwargs):
        raise ToleranceError("root key collision while indexing the root system")

    monkeypatch.setattr(coxeter, "generate_root_system", fault)
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, 4], [4, 1]]}))
    code, out, err = run(capsys, "valency", "-g", str(path))
    assert code == 2 and out == ""
    assert err == "error: root key collision while indexing the root system\n"


@pytest.mark.parametrize("text", [
    '{"rank": 2}',
    "[[1, 4], [4, 1]]",
    '{"m": [[1, null], [null, 1]]}',
    '{"m": [[1, 3.7], [3.7, 1]]}',  # int() would read a bond of 3
], ids=["no-m", "list", "null", "float"])
def test_malformed_json_group_is_an_error(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "valency", "-g", str(path))
    assert code == 2 and out == ""
    assert err == f'error: {path}: expected an object with an "m" list of integer rows\n'


def test_missing_json_group_is_an_error(capsys, tmp_path):
    path = tmp_path / "missing.json"
    code, out, err = run(capsys, "valency", "-g", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err


def test_cosets_exclude_out_of_range(capsys):
    code, out, err = run(capsys, "cosets", "-g", "A3", "--exclude", "9")
    assert code == 2 and out == ""
    assert "generator index 9 out of range" in err
    assert run(capsys, "cosets", "-g", "A3", "--parabolic", "1,7")[0] == 2


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


def test_closed_stdout_ends_quietly():
    # `export ... | head`: the reader goes after one line of E6's 238 KB DOT
    env = dict(os.environ, PYTHONPATH=str(Path(e0graph.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "e0graph.cli", "export", "-g", "E6", "--format", "dot"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b'graph "E6" {\n'
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""
