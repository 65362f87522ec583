"""The benchmark's oracles, as tests: `perfbench/run.py` records a
failed oracle in its output but still exits 0."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def test_balls_task_list_passes_its_oracles(workloads):
    # one untimed pass, as a benchmark child runs it
    p = workloads.Pass()
    counts = workloads.run(p, "balls", workloads.setup(p, "balls"), 1)
    assert [name for name, _, _ in p.tasks] == [
        "evidence_U3", "evidence_U4", "ball_H337", "evidence_H337",
        "ball_A2~", "evidence_A2~", "product_U3xU3",
    ]
    assert all(ok for _, ok, _ in p.tasks), p.tasks
    assert counts["infinite.ball_elems"] == 72086
    assert counts["infinite.ball_invs"] == 392


@pytest.mark.parametrize("name,V,E", [("e7", 10207, 360564), ("dense", 7775, 702153)])
def test_finite_task_lists_pass_their_oracles(workloads, name, V, E):
    # the valency, export and distance digests and the E7 pendants, untimed
    p = workloads.Pass()
    counts = workloads.run(p, name, workloads.setup(p, name), 1)
    assert p.tasks and all(ok for _, ok, _ in p.tasks), p.tasks
    assert (counts["graph.vertices_n"], counts["graph.edges_n"]) == (V, E)
