"""The graph itself: adjacency, valencies, components, pendants, excess."""

import hashlib
import json
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from e0graph import graph as gr
from e0graph.coxeter import CoxeterGroup, Element, SpecError, _iter_bits, format_word
from e0graph.tables import dihedral_distribution
from e0graph.verify import SUITE
from e0graph.graph import (
    build_graph,
    components_and_diameter,
    E0Graph,
    InvolutionSet,
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


def _export_elements(g):
    """The vertices of g in export-id order; checks the export's words."""
    words, rank = g._export_order()
    assert sorted(rank.tolist()) == list(range(len(g)))
    elems = [g.vertices.elements[i] for i in np.argsort(rank)]
    assert [e.word for e in elems] == words
    return elems


def test_involution_set_structure():
    invs = enumerate_involutions(group("A3"))
    lengths = [e.length for e in invs]
    assert lengths == sorted(lengths)  # internal order: by length
    for e in invs:
        assert e.is_involution()
    keys = [e.sort_key() for e in _export_elements(graph("A3"))]
    assert keys == sorted(keys)  # export order: (length, word)


@pytest.mark.parametrize("label", SUITE + ("D7", "H4", "E6"))
def test_walk_matches_full_enumeration(label):
    grp = CoxeterGroup.from_spec(label)  # fresh: keeps the full group uncached
    full = [Element(grp, p) for p in grp.enumerate_perms()]
    want = sorted((e for e in full if e.is_involution()), key=Element.sort_key)
    invs = enumerate_involutions(grp)
    assert len(invs) == len(want)
    assert {e.perm for e in invs} == {e.perm for e in want}
    assert all(e.is_involution() for e in invs)
    lengths = [e.length for e in invs]
    assert lengths == sorted(lengths)
    assert [e.perm for e in _export_elements(build_graph(grp))] == [e.perm for e in want]


def test_walk_e7():
    grp = CoxeterGroup.from_spec("E7")
    invs = list(enumerate_involutions(grp))
    assert len(invs) == 10207
    assert len({e.perm for e in invs}) == 10207
    assert all(e.is_involution() for e in invs)
    lengths = [e.length for e in invs]
    assert lengths == sorted(lengths)
    keys = [e.sort_key() for e in _export_elements(build_graph(grp))]
    assert keys == sorted(keys)


def test_walk_order_ignores_the_hash_seed():
    script = ("import hashlib; from e0graph import CoxeterGroup, enumerate_involutions; "
              "invs = enumerate_involutions(CoxeterGroup.from_spec('E6')); "
              "print(hashlib.sha256(b''.join(e.perm for e in invs)).hexdigest())")
    env = dict(os.environ, PYTHONPATH=str(Path(gr.__file__).parents[1]))
    digests = {
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       check=True, env=dict(env, PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "1")
    }
    assert len(digests) == 1


def test_no_word_before_the_exports(monkeypatch):
    def refuse(self, a):
        raise AssertionError("a lexmin word was computed")

    monkeypatch.setattr(CoxeterGroup, "_lexmin_word", refuse)
    for label, V in (("E6", 891), ("E7", 10207)):
        grp = CoxeterGroup.from_spec(label)
        g = build_graph(grp)
        assert len(g) == V
        assert valency_distribution(g).total == V
        assert len(components_and_diameter(g)[0]) == 2
        assert len(pendant_elements(g)) == grp.rank
        assert sum(g.degrees()) == 2 * g.edge_count()


def test_exports_compute_each_word_once(monkeypatch):
    calls = []
    lexmin = CoxeterGroup._lexmin_word

    def counted(self, a):
        calls.append(a)
        return lexmin(self, a)

    monkeypatch.setattr(CoxeterGroup, "_lexmin_word", counted)
    g = build_graph(CoxeterGroup.from_spec("A5"))
    g.to_json(), g.to_json(indent=2), g.to_dot()
    assert len(calls) == len(g) == 75


@pytest.mark.parametrize("label", ["A5", "B2xA1xA2"])
def test_exports_ignore_the_vertex_order(label):
    grp = CoxeterGroup.from_spec(label)
    g = build_graph(grp)
    elems = list(g.vertices)
    random.Random(label).shuffle(elems)
    assert elems != g.vertices.elements
    rows = gr._pairwise_disjoint_rows(grp.n_set_words([e.perm for e in elems]))
    shuffled = E0Graph(grp, InvolutionSet(grp, elems), rows)
    assert shuffled.to_json() == g.to_json()
    assert shuffled.to_json(indent=2) == g.to_json(indent=2)
    assert shuffled.to_dot() == g.to_dot()


def test_budget_refuses_during_the_walk(monkeypatch):
    cached = CoxeterGroup.from_spec("A5")
    assert len(enumerate_involutions(cached)) == 75  # walked under the real budget
    monkeypatch.setattr(gr, "ADJACENCY_BUDGET", 50)  # 6 vertices (6 x 1 word); A5 has 75
    grp = CoxeterGroup.from_spec("A5")
    with pytest.raises(SpecError, match="A5 has more than 6 involutions"):
        build_graph(grp)
    assert grp._involution_perms is None  # the walk was cut short
    with pytest.raises(SpecError, match="more than 6"):
        build_graph(cached)  # the cached walk is held to the budget too


def _matrix_bytes(V):
    return V * -(-V // 64) * 8


def test_e8_is_refused_by_the_adjacency_budget():
    V = gr.vertex_limit()
    assert _matrix_bytes(V) <= gr.ADJACENCY_BUDGET < _matrix_bytes(V + 1)
    with pytest.raises(SpecError, match="E8 has more than 92672 involutions"):
        build_graph(CoxeterGroup.from_spec("E8"))


# N-sets of 63 and 64 bits fill one uint64 word, 65 and 127 bits two
@pytest.mark.parametrize("m", [63, 64, 65, 127])
def test_dihedral_distribution_across_the_word_boundary(m):
    grp = CoxeterGroup.from_spec(f"I2({m})")
    assert grp.n_set_words([grp.identity_perm]).shape == (-(-m // 64), 1)
    assert valency_distribution(build_graph(grp)) == dihedral_distribution(m)


def _loop_n_bits(grp, perm):
    P = grp.pos_count
    return sum(1 << p for p in range(P) if perm[p] >= P)


@pytest.mark.parametrize("label", ["D5", "I2(127)"])
def test_n_set_packing_matches_a_loop(label):
    grp = CoxeterGroup.from_spec(label)
    perms = [e.perm for e in enumerate_involutions(grp)]
    want = [_loop_n_bits(grp, p) for p in perms]
    assert [grp._n_bits(p) for p in perms] == want
    words = grp.n_set_words(perms)
    assert words.dtype == np.dtype("<u8") and words.shape[1] == len(perms)
    got = [sum(int(w) << (64 * k) for k, w in enumerate(col)) for col in words.T]
    assert got == want


@pytest.mark.parametrize("chunk", [gr.CHUNK_BYTES, 8])
@pytest.mark.parametrize("label", ["I2(65)", "A1xI2(64)"])
def test_two_word_rows_match_int_bitsets(monkeypatch, chunk, label):
    monkeypatch.setattr(gr, "CHUNK_BYTES", chunk)
    grp = CoxeterGroup.from_spec(label)
    assert grp.pos_count == 65
    invs = enumerate_involutions(grp)
    nbits = [grp._n_bits(e.perm) for e in invs]
    want = [
        sum(1 << j for j, b in enumerate(nbits) if a & b == 0) for a in nbits
    ]
    rows = gr._pairwise_disjoint_rows(grp.n_set_words([e.perm for e in invs]))
    assert list(E0Graph(grp, invs, rows).adj) == want


@pytest.mark.parametrize("label", ["A1", "A5", "I2(65)", "B2xA1xA2"])
def test_adjacency_matrix_layout(label):
    rows = graph(label).rows
    V = len(rows)
    assert rows.flags.c_contiguous and rows.dtype == np.dtype("<u8")
    assert rows.shape == (V, -(-V // 64))
    bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").view(bool)
    assert not bits[:, V:].any()  # degrees count every set bit of a row
    square = bits[:, :V]
    assert (square == square.T).all() and not square.diagonal().any()


def _product_counts(a, b):
    """(V, E) of E0(W1 x W2) from (V, E) of the factors' graphs.

    An involution of W1 x W2 is a pair of involutions or identities, not both
    the identity.  Ordered pairs (x, y) of involutions or identities with
    disjoint N-sets number S = 2E + 2V + 1 (each edge both ways, x with 1
    both ways, and (1, 1)).  N-sets in the product are disjoint iff they are
    in each coordinate, so the product has S1 S2 such pairs.
    """
    (v1, e1), (v2, e2) = a, b
    V = (v1 + 1) * (v2 + 1) - 1
    return V, ((2 * e1 + 2 * v1 + 1) * (2 * e2 + 2 * v2 + 1) - 2 * V - 1) // 2


def test_e7xa1_matches_the_product_formula():
    counts = [(len(g), g.edge_count()) for g in (graph("E7"), graph("A1"))]
    assert counts == [(10207, 360564), (1, 0)]
    grp = CoxeterGroup.from_spec("E7xA1")  # 64 positive roots: one full word
    assert grp.pos_count == 64 and grp.n_set_words([grp.identity_perm]).shape == (1, 1)
    g = build_graph(grp)
    assert (len(g), g.edge_count()) == _product_counts(*counts) == (20415, 1091899)


def test_build_packs_n_sets_in_one_call(monkeypatch):
    def no_loop(self, a):
        raise AssertionError("build_graph read an N-set one vertex at a time")

    monkeypatch.setattr(CoxeterGroup, "_n_bits", no_loop)
    # valencies 0, 1, 1, 2, 2, ..., 32, 32
    assert build_graph(CoxeterGroup.from_spec("I2(65)")).edge_count() == 528
    assert build_graph(CoxeterGroup.from_spec("E7")).edge_count() == 360564


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
    adj = list(g.adj)
    comps, seen, hat_diameter = [], 0, 0
    for i in range(len(g)):
        reach, layers = _bfs(adj, i)
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
    bare = E0Graph(g.group, g.vertices, np.zeros_like(g.rows))
    with pytest.raises(ValueError, match="expected one component away from w0, found 8"):
        components_and_diameter(bare)


def test_graph_distance():
    g = graph("A3")
    grp = group("A3")
    assert graph_distance(g, grp.generator(1), grp.generator(2)) == 1
    assert graph_distance(g, grp.generator(1), grp.generator(1)) == 0
    w0 = grp.longest_element()
    assert graph_distance(g, w0, grp.generator(1)) is None


def _distances_match_bfs(g):
    elems = g.vertices.elements
    adj = list(g.adj)
    nones = 0
    for i in range(len(g)):
        _, layers = _bfs(adj, i)
        want = [None] * len(g)
        for d, layer in enumerate(layers):
            for j in _iter_bits(layer):
                want[j] = d
        nones += want.count(None)
        assert [graph_distance(g, elems[i], y) for y in elems] == want
    assert nones == 2 * (len(g) - 1)  # only the pairs with w0, both ways


@pytest.mark.parametrize("label", ["A4", "B3", "B2xA1xA2"])
def test_graph_distance_matches_bfs(label):
    _distances_match_bfs(graph(label))


@pytest.mark.parametrize("label", ["A4", "B3", "B2xA1xA2"])
def test_graph_distance_in_small_chunks(label, monkeypatch):
    monkeypatch.setattr(gr, "CHUNK_BYTES", 8)  # every gather holds one row
    _distances_match_bfs(graph(label))


def _with_edges(g, edges):
    """A graph on g's vertices with the given edges in place of g's own."""
    V = len(g)
    square = np.zeros((V, 64 * -(-V // 64)), dtype=bool)
    for i, j in edges:
        square[i, j] = square[j, i] = True
    rows = np.packbits(square, axis=1, bitorder="little").view("<u8")
    return E0Graph(g.group, g.vertices, rows)


@pytest.mark.parametrize("chunk", [gr.CHUNK_BYTES, 8])
def test_searches_on_a_long_path(chunk, monkeypatch):
    # the real graphs have hat diameter at most 3; a path needs every layer
    monkeypatch.setattr(gr, "CHUNK_BYTES", chunk)
    g = graph("A5")  # 75 vertices: two words per row
    w0 = g.vertices.index_of(g.group.longest_element())
    order = [v for v in range(len(g)) if v != w0]
    path = _with_edges(g, zip(order, order[1:]))
    comps, hat_diameter = components_and_diameter(path)
    assert sorted(map(len, comps)) == [1, 74] and hat_diameter == 73
    elems = g.vertices.elements
    for start in (0, 30):
        x = elems[order[start]]
        want = [abs(k - start) for k in range(len(order))]
        assert [graph_distance(path, x, elems[v]) for v in order] == want
        assert graph_distance(path, x, elems[w0]) is None


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
        monkeypatch.setattr(gr, "EXPORT_BLOCK", 3)
    g = graph(label)
    want = [(i, j) for i, row in enumerate(g.adj) for j in _iter_bits(row) if j > i]
    assert g.edges() == want
    assert len(want) == g.edge_count()
    _, rank = g._export_order()
    exported = sorted(tuple(sorted((int(rank[i]), int(rank[j])))) for i, j in want)
    dot = [line for line in g.to_dot().splitlines() if " -- " in line]
    assert dot == [f"  v{i} -- v{j};" for i, j in exported]
    assert json.loads(g.to_json())["edges"] == [[i, j] for i, j in exported]


# SHA-256 of to_json(indent=...) when the export encoded one whole document
JSON_SHA256 = {
    ("A1", None): "c676acadab9a275bc709ee1a310bf35204584a94408db3be03a03a87aa1327f9",
    ("A1", 2): "470b6dc7df91c5bd98fb99b88cdabc06286e66d95e21e2addd557f4b36e99a28",
    ("A2", None): "4a86dbbd06ec9ddd9db9fd00995d410c207f385727c9a6f07dd9ac68518dbae3",
    ("A2", 2): "c6cb803836935e9df00f3a10396f6b04499b30240b46e2bf039649642165cbf0",
    ("A5", None): "7e1c1fe8ed6e4ea40f3879935c50e71395ac657dd303fdc0ecc49c185d87efd0",
    ("A5", 2): "5e560391dd9e280f48ca2b819065e121eced099c2084ff2cbac05fe7cd6168d6",
    ("B2xA1xA2", None): "f5d9660a65c72424b7cdbaa88978256024f8e82423ebfc1224951c6bc829062f",
    ("B2xA1xA2", 2): "d0a1b5c2c3d246174e3e87ac89344b0e9bf8018017b20322399d979543a4cc7d",
}


@pytest.mark.parametrize("label,indent", sorted(JSON_SHA256, key=str))
def test_json_export_is_one_document(label, indent, monkeypatch):
    monkeypatch.setattr(gr, "EXPORT_BLOCK", 4)  # several blocks even on A5
    text = build_graph(CoxeterGroup.from_spec(label)).to_json(indent=indent)
    assert json.dumps(json.loads(text), indent=indent) == text
    assert hashlib.sha256(text.encode()).hexdigest() == JSON_SHA256[label, indent]


@pytest.mark.parametrize(
    "kwargs", [{"indent": "\t"}, {"separators": (",", ":")}, {"sort_keys": True, "indent": 1}]
)
def test_json_export_takes_any_dumps_arguments(kwargs, monkeypatch):
    monkeypatch.setattr(gr, "EXPORT_BLOCK", 4)
    g = build_graph(CoxeterGroup.from_spec("B2xA1xA2"))
    assert g.to_json(**kwargs) == json.dumps(json.loads(g.to_json()), **kwargs)


@pytest.mark.parametrize("label", ["A4", "B3", "I2(65)"])
def test_has_edge_matches_bit_rows(label):
    g = graph(label)
    elems = g.vertices.elements
    for i, row in enumerate(g.adj):
        for j in range(len(g)):
            assert g.has_edge(i, j) == bool((row >> j) & 1)
            assert g.has_edge(i, j) == (i != j and is_adjacent(elems[i], elems[j]))


def test_graph_dot_shape():
    dot = graph("A2").to_dot()
    assert dot.startswith('graph "A2"')
    assert dot.count("--") == 1
    assert 'v0 [label="[1]"];' in dot


def test_distribution_csv():
    csv = valency_distribution(graph("I2(5)")).to_csv()
    assert csv == "valency,count\n0,1\n1,2\n2,2\n"
