"""The graph itself: adjacency, valencies, components, pendants, excess."""

import json
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from e0graph import graph as gr
from e0graph.coxeter import CoxeterGroup, Element, SpecError, _iter_bits, format_word
from e0graph.verify import SUITE
from e0graph.graph import (
    build_graph,
    components_and_diameter,
    E0Graph,
    delta1_of_w0x,
    enumerate_involutions,
    excess,
    graph_distance,
    is_adjacent,
    is_sequential,
    pendant_elements,
    pendant_report,
    predicted_pendants,
    sequential_shapes,
    valency_distribution,
)


@lru_cache(maxsize=None)
def group(label):
    return CoxeterGroup.from_spec(label)


def graph(label):
    return build_graph(group(label))


# ---------------------------------------------------------------------------
# involutions and adjacency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,count", [("A3", 9), ("A6", 231), ("I2(4)", 5)])
def test_involution_counts(label, count):
    assert len(enumerate_involutions(group(label))) == count


def test_involution_set_structure():
    invs = enumerate_involutions(group("A3"))
    assert sorted(invs.by_length) == [1, 2, 3, 4, 5, 6]
    keys = [e.sort_key() for e in invs]
    assert keys == sorted(keys)  # stable (length, word) order
    for e in invs:
        assert e.is_involution()


@pytest.mark.parametrize("label", SUITE + ("D7", "H4", "E6"))
def test_walk_matches_full_enumeration(label):
    grp = CoxeterGroup.from_spec(label)  # fresh: keeps the full group uncached
    full = [Element(grp, p) for p in grp.enumerate_perms()]
    want = sorted((e for e in full if e.is_involution()), key=Element.sort_key)
    assert [e.perm for e in enumerate_involutions(grp)] == [e.perm for e in want]


def test_walk_e7():
    grp = CoxeterGroup.from_spec("E7")
    invs = list(enumerate_involutions(grp))
    assert len(invs) == 10207
    assert all(e.is_involution() for e in invs)
    keys = [e.sort_key() for e in invs]
    assert keys == sorted(keys)


def test_budget_refuses_during_the_walk(monkeypatch):
    monkeypatch.setattr(gr, "ADJACENCY_BUDGET", 50)  # 20 vertices; A5 has 75
    grp = CoxeterGroup.from_spec("A5")
    with pytest.raises(SpecError, match="A5 has more than 20 involutions"):
        build_graph(grp)
    assert grp._involution_perms is None  # the walk was cut short
    enumerate_involutions(grp, limit=75)
    with pytest.raises(SpecError, match="more than 20"):
        build_graph(grp)  # the cached walk is held to the budget too


def test_pure_python_pair_budget(monkeypatch):
    grp = CoxeterGroup.from_spec("I2(65)")  # 65 reflections, 65 positive roots
    assert len(build_graph(CoxeterGroup.from_spec("I2(65)"))) == 65
    monkeypatch.setattr(gr, "PYTHON_PAIR_BUDGET", 64 * 64)
    with pytest.raises(SpecError, match="I2\\(65\\) has more than 64"):
        build_graph(grp)
    assert len(build_graph(CoxeterGroup.from_spec("A5"))) == 75  # 15-bit N-sets
    assert len(enumerate_involutions(grp)) == 65  # only build_graph is held


def test_is_adjacent_examples():
    g = group("A2")
    r1, r2 = g.generator(1), g.generator(2)
    assert is_adjacent(r1, r2)  # l(r1 r2) = 2
    w0 = g.longest_element()
    assert not is_adjacent(w0, r1)
    assert not is_adjacent(w0, r2)


def test_a2_graph_by_hand():
    # Sym(3): three involutions, one edge, w0 alone
    g = graph("A2")
    assert len(g) == 3 and g.edge_count() == 1
    grp = group("A2")
    assert g.neighborhood(grp.generator(1)) == {grp.generator(2)}
    assert g.neighborhood(grp.longest_element()) == set()


def test_a1xa1_graph():
    g = graph("A1xA1")
    grp = group("A1xA1")
    assert len(g) == 3 and g.edge_count() == 1
    w0 = grp.longest_element()
    assert w0 == grp.generator(1) * grp.generator(2)
    assert g.neighborhood(w0) == set()


def test_a3_matches_reference_row():
    assert str(valency_distribution(graph("A3"))) == "0^1.1^3.2^1.3^1.4^3"


def test_neighborhood_generator_degree():
    for label in ["A3", "B3", "I2(5)", "D4"]:
        g = graph(label)
        grp = group(label)
        for i in grp.generators:
            assert len(g.neighborhood(grp.generator(i))) == (len(g) - 1) // 2


def test_neighborhood_of_w0r_when_central():
    grp = group("B2")
    g = graph("B2")
    w0 = grp.longest_element()
    for i in grp.generators:
        assert g.neighborhood(w0 * grp.generator(i)) == {grp.generator(i)}


def test_neighborhood_rejects_non_vertices():
    g = graph("A3")
    rotation = group("A3").element_from_word([1, 2])
    with pytest.raises(ValueError):
        g.neighborhood(rotation)


def test_every_hat_vertex_touches_a_generator():
    for label in ["A3", "B3", "D4", "I2(9)", "H3"]:
        g = graph(label)
        grp = group(label)
        gens = {grp.generator(i) for i in grp.generators}
        w0 = grp.longest_element()
        for x in g.vertices:
            if x == w0:
                continue
            assert gens & g.neighborhood(x) or x in gens and g.neighborhood(x)


# ---------------------------------------------------------------------------
# components and diameter
# ---------------------------------------------------------------------------

def _set_bits(x, nbytes):
    """The indices of the set bits of x, as a list (faster than _iter_bits
    on wide ints with many bits set)."""
    row = np.frombuffer(x.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(row, bitorder="little")).tolist()


def _bfs(adj, i):
    """One-sided BFS from vertex i: its component bitset and its distance
    layers (layer k holds the vertices at distance k)."""
    nbytes = -(-len(adj) // 8)
    reach = frontier = 1 << i
    layers = []
    while frontier:
        layers.append(frontier)
        grown = 0
        for u in _set_bits(frontier, nbytes):
            grown |= adj[u]
        frontier = grown & ~reach
        reach |= frontier
    return reach, layers


def _components_and_diameter_oracle(g):
    """Components by lowest vertex index; hat diameter as the largest BFS
    distance between two vertices of the component without w0."""
    w0 = g.vertices.index_of(g.group.longest_element())
    comps, seen, hat_diameter = [], 0, 0
    for i in range(len(g)):
        reach, layers = _bfs(g.adj, i)
        if not (seen >> i) & 1:
            comps.append(frozenset(g.vertices.elements[j] for j in _iter_bits(reach)))
            seen |= reach
        if not (reach >> w0) & 1:
            hat_diameter = max(hat_diameter, len(layers) - 1)
    return comps, hat_diameter


@pytest.mark.parametrize("label", SUITE + ("D7", "E6", "H4"))
def test_components_and_diameter_match_bfs(label):
    g = graph(label)
    assert components_and_diameter(g) == _components_and_diameter_oracle(g)


@pytest.mark.parametrize("label", ["B3", "D5", "I2(7)", "A2xA2", "B2xA1xA2"])
def test_components_and_diameter_in_small_chunks(label, monkeypatch):
    # every gather holds one closed neighbourhood, every unpacked block one row
    monkeypatch.setattr(gr, "CHUNK_BYTES", 8)
    g = graph(label)
    assert components_and_diameter(g) == _components_and_diameter_oracle(g)


def test_components_and_diameter_examples():
    comps, hd = components_and_diameter(graph("A2"))
    assert sorted(len(c) for c in comps) == [1, 2] and hd == 1
    comps, hd = components_and_diameter(graph("A3"))
    assert len(comps) == 2 and hd == 3
    comps, hd = components_and_diameter(graph("B2"))
    assert hd == 3


def test_rank_one_diameter_undefined():
    with pytest.raises(ValueError, match="rank-1 group"):
        components_and_diameter(graph("A1"))


def test_split_hat_component_is_refused():
    g = graph("A3")
    bare = E0Graph(g.group, g.vertices, g.nbits, [0] * len(g))
    with pytest.raises(ValueError, match="expected one component away from w0, found 8"):
        components_and_diameter(bare)


def test_graph_distance():
    g = graph("A3")
    grp = group("A3")
    assert graph_distance(g, grp.generator(1), grp.generator(2)) == 1
    assert graph_distance(g, grp.generator(1), grp.generator(1)) == 0
    w0 = grp.longest_element()
    assert graph_distance(g, w0, grp.generator(1)) is None


@pytest.mark.parametrize("label", ["A4", "B3", "B2xA1xA2"])
def test_graph_distance_matches_bfs(label):
    g = graph(label)
    elems = g.vertices.elements
    nones = 0
    for i in range(len(g)):
        _, layers = _bfs(g.adj, i)
        want = [None] * len(g)
        for d, layer in enumerate(layers):
            for j in _iter_bits(layer):
                want[j] = d
        nones += want.count(None)
        assert [graph_distance(g, elems[i], y) for y in elems] == want
    assert nones == 2 * (len(g) - 1)  # only the pairs with w0, both ways


def test_maximal_parabolic_witnesses_at_distance_three():
    for label in ["A3", "B3", "A2xA2"]:
        grp = group(label)
        g = graph(label)
        R = set(grp.generators)
        for r, s in combinations(sorted(R), 2):
            x = grp.parabolic_longest(R - {r})
            y = grp.parabolic_longest(R - {s})
            assert graph_distance(g, x, y) == 3


# ---------------------------------------------------------------------------
# excess
# ---------------------------------------------------------------------------

def _excess_oracle(grp, w):
    """Exhaustive search over ordered pairs from I(W) + {1} with xy = w."""
    pool = [grp.identity] + list(enumerate_involutions(grp))
    best = None
    for x in pool:
        for y in pool:
            if x * y == w:
                e = x.length + y.length - w.length
                if best is None or e < best:
                    best = e
    return best


def test_excess_sym4_exhaustive():
    grp = group("A3")
    for p in sorted(grp.enumerate_perms()):
        w = Element(grp, p)
        assert excess(grp, w) == _excess_oracle(grp, w)


def test_excess_zero_for_involutions_and_identity():
    grp = group("B3")
    assert excess(grp, grp.identity) == 0
    for w in enumerate_involutions(grp):
        assert excess(grp, w) == 0


def test_excess_is_even():
    grp = group("B3")
    for p in sorted(grp.enumerate_perms()):
        assert excess(grp, Element(grp, p)) % 2 == 0


# ---------------------------------------------------------------------------
# pendant elements
# ---------------------------------------------------------------------------

def test_pendants_a3():
    pend = pendant_elements(graph("A3"))
    assert len(pend) == 3
    assert pend == predicted_pendants(group("A3"))


def test_pendants_i25():
    grp = group("I2(5)")
    w0 = grp.longest_element()
    expected = {w0 * grp.element_from_word([1, 2]),
                w0 * grp.element_from_word([2, 1])}
    assert pendant_elements(graph("I2(5)")) == expected


def test_predicted_pendants_b3():
    grp = group("B3")
    w0 = grp.longest_element()
    assert predicted_pendants(grp) == {w0 * grp.generator(i) for i in (1, 2, 3)}


def test_predicted_pendants_a3_dedup():
    # the middle i = 2 word [2] appears once: ascending and descending agree
    grp = group("A3")
    assert len(predicted_pendants(grp)) == 3


@pytest.mark.parametrize("label", ["A2", "A4", "B4", "D4", "D5", "I2(7)", "I2(8)", "H3"])
def test_pendant_count_is_rank(label):
    rep = pendant_report(group(label))
    assert rep.match
    assert len(rep.computed) == group(label).rank


def test_predicted_pendants_rejects_products():
    from e0graph.coxeter import SpecError

    with pytest.raises(SpecError):
        predicted_pendants(group("A1xA1"))


# ---------------------------------------------------------------------------
# lemma-level helpers
# ---------------------------------------------------------------------------

def test_delta1_of_w0x_examples():
    grp = group("A3")
    assert delta1_of_w0x(grp, grp.generator(2)) == {grp.generator(2)}
    d5 = group("D5")
    assert delta1_of_w0x(d5, d5.element_from_word([5, 3, 4])) == {d5.generator(4)}
    a4 = group("A4")
    # x = [(n+1-i) dropping to i] has the single neighbour r_i
    for i in (1, 2):
        x = a4.element_from_word(tuple(range(5 - i, i - 1, -1)))
        assert delta1_of_w0x(a4, x) == {a4.generator(i)}


def test_delta1_matches_graph_neighborhood():
    grp = group("B3")
    g = graph("B3")
    w0 = grp.longest_element()
    for x in [grp.generator(2), grp.generator(1) * grp.generator(3)]:
        assert delta1_of_w0x(grp, x) == g.neighborhood(w0 * x)


def test_delta1_rejects_non_involutions():
    grp = group("A3")
    with pytest.raises(ValueError):
        delta1_of_w0x(grp, grp.generator(1) * grp.generator(2))  # w0x not involutive
    with pytest.raises(ValueError):
        delta1_of_w0x(grp, grp.longest_element())  # w0x = identity


def test_is_sequential_examples():
    assert is_sequential((2,), 3) == (2, 0, 0)
    assert is_sequential((3, 2, 1), 3) == (1, 2, 0)
    assert is_sequential((1, 3), 3) is None
    assert is_sequential((1, 2), 3) == (2, 0, 1)
    with pytest.raises(ValueError):
        is_sequential((1, 1), 3)  # not reduced


@pytest.mark.parametrize("n", [4, 5])
def test_sequential_dichotomy_exhaustive(n):
    # every x with w0 x an involution is either staircase-shaped or has at
    # least two neighbours of w0 x; staircase x land in the expected set
    grp = group(f"A{n}")
    w0 = grp.longest_element()
    shapes = {grp.element_from_word(w) for w in sequential_shapes(n)}
    for p in sorted(grp.enumerate_perms()):
        x = Element(grp, p)
        v = w0 * x
        if v.is_identity() or not v.is_involution() or x.is_identity():
            continue
        seq = is_sequential(x.word, n)
        if seq is None:
            assert len(delta1_of_w0x(grp, x)) >= 2, format_word(x.word)
        else:
            assert x in shapes, format_word(x.word)


def test_neighbour_sets_nest_along_descents():
    # valency can only shrink when a descent generator is stripped
    for label in ["A3", "B3", "D4", "I2(7)"]:
        grp = group(label)
        g = graph(label)
        for x in g.vertices:
            nx = g.neighborhood(x)
            for i in grp.descent_sets(x)[1]:
                r = grp.generator(i)
                nr = g.neighborhood(r)
                assert nx <= nr
                if nx == nr:
                    assert x == r


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_graph_json_shape():
    g = graph("A2")
    data = json.loads(g.to_json())
    assert data["group"] == "A2"
    assert len(data["vertices"]) == 3
    assert data["edges"] == [[0, 1]]
    assert data["vertices"][0]["word"] == "[1]"
    assert all(i < j for i, j in data["edges"])


@pytest.mark.parametrize("label", ["A2", "A5", "B2xA1xA2", "I2(65)"])
@pytest.mark.parametrize("chunk", [8, None])
def test_edges_match_bit_rows(label, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(gr, "CHUNK_BYTES", chunk)
    g = graph(label)
    want = [(i, j) for i, row in enumerate(g.adj) for j in _iter_bits(row) if j > i]
    assert g.edges() == want
    assert len(want) == g.edge_count()
    dot = [line for line in g.to_dot().splitlines() if " -- " in line]
    assert dot == [f"  v{i} -- v{j};" for i, j in want]
    assert json.loads(g.to_json())["edges"] == [[i, j] for i, j in want]


def test_graph_dot_shape():
    dot = graph("A2").to_dot()
    assert dot.startswith('graph "A2"')
    assert dot.count("--") == 1
    assert 'v0 [label="[1]"];' in dot


def test_distribution_csv():
    csv = valency_distribution(graph("I2(5)")).to_csv()
    assert csv == "valency,count\n0,1\n1,2\n2,2\n"
