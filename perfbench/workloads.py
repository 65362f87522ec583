"""The benchmark's workloads: set-up, task lists, correctness oracles, counts.

Every task calls only entry points a user reaches (``CoxeterGroup.from_spec``,
``enumerate_involutions``, ``build_graph``, the graph functions and methods,
and the ``infinite`` functions), so work that the library moves or removes
shows up here.  Each task has an oracle taken from the paper or from the
seed commit's outputs; a failed oracle marks the task failed and the other
tasks still run.

Reference digests are SHA-256 of the library's own output strings at the
seed commit.  Counts named in ``COUNTS`` are exact and must repeat from run
to run.
"""

from __future__ import annotations

import hashlib
import random
import time

import e0graph
from e0graph import (
    CoxeterGroup,
    CoxeterMatrix,
    InfiniteCoxeterGroup,
    ball_graph_diameter_evidence,
    build_graph,
    components_and_diameter,
    enumerate_ball,
    enumerate_involutions,
    graph_distance,
    pendant_report,
    product_diameter_check,
    valency_distribution,
)

# Values at the seed commit.  V and E are the vertex and edge counts.
FINITE = {
    "e7": {
        "spec": "E7",
        "V": 10207,
        "E": 360564,
        "valency_sha": "5b4cf82f2e2029c8aa97fd36b19d1d665718ac85b471afa9c0b2a7c262ae8e30",
    },
    "dense": {
        "spec": "B2xB2xB2xB2xB2",
        "V": 7775,
        "E": 702153,
        "valency_sha": "886877489bd90ea6a99c09b1785525991c0979421ae19859acec9e5c2e5c23be",
        "json_sha": "7a6e419a2b6923e67809546f2c6d315daa843023beb993244ed409c8e875ac61",
        "dot_sha": "09e5a0dcfa637fb5c1b367bce870ca0fbdf87f633a884c09e417a220763ba949",
        "distance_pairs": 5000,
    },
}

HYPERBOLIC_337 = ((1, 3, 7), (3, 1, 3), (7, 3, 1))
AFFINE_A2 = ((1, 3, 3), (3, 1, 3), (3, 3, 1))
BALL_337_RADIUS = 20
BALL_337_SIZE = 70690
BALL_A2_RADIUS = 30

COUNTS = (
    "graph.vertices_n",
    "graph.vertices_yield",
    "graph.nset_width",
    "graph.build_pairs",
    "graph.build_bytes",
    "graph.edges_n",
    "graph.distance_n",
    "graph.export_json_bytes",
    "graph.export_dot_bytes",
    "infinite.ball_elems",
    "infinite.ball_invs",
)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """One pass of a task list: times every layer call, spans it if traced.

    ``wall`` sums the durations of the layer calls only, so the benchmark's
    own bookkeeping and oracles are outside it.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.tasks = []  # (name, ok, detail)

    def call(self, name, fn, *args):
        t = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args)
            with self.tracer.span(name):
                return fn(*args)
        finally:
            self.wall += time.perf_counter() - t

    def task(self, name, run, check):
        """Run one task, then its oracle; an exception fails this task only."""
        try:
            result = run()
        except Exception as exc:  # noqa: BLE001 - recorded, the pass goes on
            self.tasks.append((name, False, f"raised {exc!r}"))
            return None
        try:
            ok, detail = check(result)
        except Exception as exc:  # noqa: BLE001
            ok, detail = False, f"oracle raised {exc!r}"
        self.tasks.append((name, bool(ok), detail))
        return result


def _expect(got, want, what):
    return got == want, f"{what} {got} (want {want})"


# -- finite workloads ---------------------------------------------------------

def finite_setup(p, name):
    return {"group": p.call("coxeter.group", CoxeterGroup.from_spec, FINITE[name]["spec"])}


def _highval(g, group):
    """cor-highval: generators have valency (V-1)/2, every other vertex less."""
    V = len(g.vertices)
    top = (V - 1) // 2
    gens = {g.vertices.index_of(group.generator(i)) for i in group.generators}
    degs = g.degrees()
    bad_gen = [i for i in gens if degs[i] != top]
    bad_other = [i for i, d in enumerate(degs) if i not in gens and d >= top]
    ok = V % 2 == 1 and not bad_gen and not bad_other
    return ok, f"top {top}, generators off {len(bad_gen)}, others at/above {len(bad_other)}"


def _distance_ok(g, pairs, got, w0_idx):
    adj = g.adj
    for (i, j), d in zip(pairs, got):
        if w0_idx in (i, j):
            if d is not None:
                return False, f"w0 pair ({i},{j}) at distance {d}"
        elif d is None or not 1 <= d <= 3 or (d == 1) != bool((adj[i] >> j) & 1):
            return False, f"pair ({i},{j}) at distance {d}"
    return True, f"{len(pairs)} pairs"


def finite_run(p, name, state, seed):
    ref = FINITE[name]
    G = state["group"]
    out = {}

    invs = p.task(
        "vertices",
        lambda: p.call("graph.vertices", enumerate_involutions, G),
        lambda r: _expect(len(r), ref["V"], "V"),
    )
    g = p.task(
        "build",
        lambda: p.call("graph.build", build_graph, G),
        lambda r: _expect(r.edge_count(), ref["E"], "E"),
    )
    p.task(
        "valency",
        lambda: p.call("graph.valency", valency_distribution, g),
        lambda r: _both(
            _expect(sha256(str(r)), ref["valency_sha"], "valency sha"), _highval(g, G)
        ),
    )
    p.task(
        "diameter",
        lambda: p.call("graph.diameter", components_and_diameter, g),
        lambda r: _expect((len(r[0]), r[1]), (2, 3), "(components, hat diameter)"),
    )
    if name == "e7":
        p.task(
            "pendant",
            lambda: p.call("graph.pendant", pendant_report, G),
            lambda r: (r.match, f"{len(r.computed)} computed, {len(r.predicted)} predicted"),
        )
    if name == "dense":
        for fmt in ("json", "dot"):
            text = p.task(
                f"export_{fmt}",
                lambda: p.call(f"graph.export_{fmt}", getattr(g, f"to_{fmt}")),
                lambda r: _expect(sha256(r), ref[f"{fmt}_sha"], f"{fmt} sha"),
            )
            out[f"graph.export_{fmt}_bytes"] = len(text.encode()) if text else 0
        p.task("distance", lambda: _distances(p, g, seed, ref["distance_pairs"], out),
               lambda r: r)

    V = len(invs) if invs is not None else 0
    width = G.pos_count
    out.update({
        "graph.vertices_n": V,
        "graph.vertices_yield": V / G.spec.order(),
        "graph.nset_width": width,
        "graph.build_pairs": V * V,
        # each pair ANDs two N-sets of ceil(width / 64) 8-byte words
        "graph.build_bytes": V * V * 2 * 8 * -(-width // 64),
        "graph.edges_n": g.edge_count() if g is not None else 0,
    })
    return out


def _distances(p, g, seed, n, out):
    """Seeded graph_distance queries between distinct vertices."""
    rng = random.Random(seed)
    V = len(g.vertices)
    pairs = []
    while len(pairs) < n:
        i, j = rng.randrange(V), rng.randrange(V)
        if i != j:
            pairs.append((i, j))
    elems = g.vertices.elements
    got = [p.call("graph.distance", graph_distance, g, elems[i], elems[j]) for i, j in pairs]
    out["graph.distance_n"] = len(got)
    w0_idx = g.vertices.index_of(g.group.longest_element())
    return _distance_ok(g, pairs, got, w0_idx)


def _both(a, b):
    return a[0] and b[0], f"{a[1]}; {b[1]}"


# -- infinite workload -------------------------------------------------------

def balls_setup(p):
    inf = InfiniteCoxeterGroup
    return {
        "U3": p.call("infinite.group", inf.from_spec, "U3"),
        "U4": p.call("infinite.group", inf.from_spec, "U4"),
        "H337": p.call("infinite.group", inf, CoxeterMatrix(HYPERBOLIC_337)),
        "A2~": p.call("infinite.group", inf, CoxeterMatrix(AFFINE_A2)),
    }


def _evidence(p, group, radius):
    return p.call("infinite.evidence", ball_graph_diameter_evidence, group, radius)


def _ok(report):
    return report.ok, f"{report.kind} radius {report.radius}"


def _a2_growth(ball):
    """Ã2 has 1 + 3r(r+1)/2 elements of length <= r, for every r in the ball."""
    by_len = [0] * (ball.radius + 1)
    for e in ball.elements:
        by_len[e.length] += 1
    total = 0
    for r, k in enumerate(by_len):
        total += k
        if total != 1 + 3 * r * (r + 1) // 2:
            return False, f"{total} elements of length <= {r}"
    return True, f"growth series holds to radius {ball.radius}"


def balls_run(p, s):
    balls = []
    p.task("evidence_U3", lambda: _evidence(p, s["U3"], 10), _ok)
    p.task("evidence_U4", lambda: _evidence(p, s["U4"], 6), _ok)
    balls.append(p.task(
        "ball_H337",
        lambda: p.call("infinite.ball", enumerate_ball, s["H337"], BALL_337_RADIUS),
        lambda r: _expect(len(r), BALL_337_SIZE, "ball size"),
    ))
    p.task("evidence_H337", lambda: _evidence(p, s["H337"], 18), _ok)
    balls.append(p.task(
        "ball_A2~",
        lambda: p.call("infinite.ball", enumerate_ball, s["A2~"], BALL_A2_RADIUS),
        _a2_growth,
    ))
    p.task("evidence_A2~", lambda: _evidence(p, s["A2~"], 30), _ok)
    p.task(
        "product_U3xU3",
        lambda: p.call("infinite.product", product_diameter_check, ("U3", "U3"), 4),
        _ok,
    )
    balls = [b for b in balls if b is not None]
    return {
        "infinite.ball_elems": sum(len(b) for b in balls),
        "infinite.ball_invs": sum(len(b.involutions()) for b in balls),
    }


def setup(p, name):
    return balls_setup(p) if name == "balls" else finite_setup(p, name)


def run(p, name, state, seed):
    """Run the task list; returns the exact counts (0 for layers not used)."""
    counts = dict.fromkeys(COUNTS, 0)
    if name == "balls":
        counts.update(balls_run(p, state))
    else:
        counts.update(finite_run(p, name, state, seed))
    return counts


def versions():
    import numpy

    return {"e0graph": e0graph.__version__, "numpy": numpy.__version__}
