"""The graph itself: adjacency, valencies, components, pendants, excess."""

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from e0graph import cli, coxeter
from e0graph import graph as gr
from e0graph.coxeter import (
    CoxeterGroup,
    CoxeterMatrix,
    Element,
    SpecError,
    ToleranceError,
    format_word,
    generate_root_system,
    pack_words,
    parse_group_spec,
)
from e0graph.infinite import InfiniteCoxeterGroup, enumerate_ball, involution_graph
from e0graph.tables import dihedral_distribution
from e0graph.verify import SUITE
from e0graph.graph import (
    build_graph,
    components_and_diameter,
    E0Graph,
    FiniteInvolutionSet,
    InvolutionSet,
    delta1_of_w0x,
    enumerate_involutions,
    excess,
    graph_distance,
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


def _perm_array(elems):
    """The (V, 2 |Phi+|) uint8 perm array of finite elements, in their order."""
    return np.array([np.frombuffer(e.perm, dtype=np.uint8) for e in elems])


def _export_elements(g):
    """The vertices of g in export-id order; checks the export's words."""
    words, labels, order = g._export_order
    assert labels.tolist() == [format_word(w) for w in words]
    assert sorted(order.tolist()) == list(range(len(g)))
    elems = [g.vertices.elements[i] for i in order]
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


def _reference_walk(grp):
    """The non-identity involutions, as perm bytes, by the twisted step with
    one seen set over the whole walk, frontier after frontier, and no
    mirror: the walk before it went one length at a time."""
    P = grp.pos_count
    seen, frontier = {grp.identity_perm}, [grp.identity_perm]
    while frontier:
        found = []
        for x in frontier:
            for i in grp.generators:
                image = x[i - 1]
                if image >= P:
                    continue
                y = x.translate(grp.gen_table[i])  # sx
                if image != i - 1:
                    y = grp.gen_perm[i].translate(y + grp._pad)  # sxs
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        frontier = found
    return seen - {grp.identity_perm}


def _has_central_w0(label):
    """Whether w0 = -1, read off the type: A1, B, D even, E7, E8, F4, H and
    I2 even, and their products."""
    return all(f in "BFH" or f in ("D", "I2") and p % 2 == 0
               or (f, p) in (("A", 1), ("E", 7), ("E", 8))
               for f, p in parse_group_spec(label).factors)


def _walked_layers(monkeypatch):
    """The number of involutions of each layer the involution walks step."""
    layers, real = [], CoxeterGroup._next_involutions

    def counted(self, *args):
        layers.append(len(layer := real(self, *args)))
        return layer

    monkeypatch.setattr(CoxeterGroup, "_next_involutions", counted)
    return layers


def _walk_matches_the_reference(grp):
    got = [row.tobytes() for row in grp.involution_perms()]
    want = _reference_walk(grp)
    assert len(got) == len(set(got)) == len(want) and set(got) == want
    lengths = [grp._length(p) for p in got]
    assert lengths == sorted(lengths)  # by length
    assert Counter(lengths) == Counter(map(grp._length, want))


def _first_find_walk(grp):
    """The involutions' perms, joined, in the order the walk made them when
    it dropped repeats by N-set: layer L's finds by generator, sx from layer
    L - 1 before sxs from layer L - 2, then by row, each N-set's first find
    kept; when w0 = -1, the layers past |Phi+| // 2 are w0 times the shorter
    ones, longest first."""
    P, w0 = grp.pos_count, grp.longest_element().perm
    top = P // 2 if w0[: grp.rank] == bytes(range(P, P + grp.rank)) else P
    layers = [[grp.identity_perm]]
    for L in range(1, top + 1):
        seen, layer = set(), []
        for i in grp.generators:
            finds = [x.translate(grp.gen_table[i]) for x in layers[L - 1] if x[i - 1] == i - 1]
            finds += [grp.gen_perm[i].translate(x.translate(grp.gen_table[i]) + grp._pad)
                      for x in layers[L - 2] if L > 1 and i - 1 != x[i - 1] < P]
            for y in finds:
                if grp._n_bits(y) not in seen:
                    seen.add(grp._n_bits(y))
                    layer.append(y)
        layers.append(layer)
    if top < P:
        layers += [[grp._mul(w0, x) for x in layer] for layer in layers[P - top - 1 :: -1]]
    return b"".join(b"".join(layer) for layer in layers[1:])


@pytest.mark.parametrize("label", SUITE + ("D7", "E6", "E7", "H4", "B2xB2xB2xB2xB2"))
def test_walk_keeps_the_first_finds_in_order(label):
    grp = CoxeterGroup.from_spec(label)
    assert grp.involution_perms().tobytes() == _first_find_walk(grp)


MIRRORED = [label for label in SUITE if _has_central_w0(label)] + ["E7", "B2xB2xB2xB2xB2"]


@pytest.mark.parametrize("label", MIRRORED)
def test_mirrored_walk_matches_the_full_walk(label, monkeypatch):
    layers = _walked_layers(monkeypatch)
    grp = CoxeterGroup.from_spec(label)
    _walk_matches_the_reference(grp)
    assert len(layers) == grp.pos_count // 2  # walked half way, mirrored the rest


def test_mirrored_walks_cover_both_parities():
    assert {CoxeterGroup.from_spec(label).pos_count % 2 for label in MIRRORED} == {0, 1}
    assert {"B3", "H3", "B4", "F4", "D6", "I2(12)"} <= set(MIRRORED)


@pytest.mark.parametrize("label", ["A1xA2", "A5", "D5", "D7", "E6", "I2(7)", "I2(65)", "B2xA2"])
def test_walk_takes_no_mirror_without_a_central_w0(label, monkeypatch):
    assert not _has_central_w0(label)
    layers = _walked_layers(monkeypatch)
    grp = CoxeterGroup.from_spec(label)
    _walk_matches_the_reference(grp)
    assert len(layers) == grp.pos_count  # every length walked


@pytest.mark.parametrize("label", [
    *(f"A{n}" for n in range(1, 8)), *(f"B{n}" for n in range(2, 7)),
    *(f"D{n}" for n in range(4, 8)), "E6", "F4", "H3", "H4",
    *(f"I2({m})" for m in (3, 4, 5, 6, 63, 64)), "A1xA1", "A2xB3", "B2xB2xB2xB2xB2", "A1xD5xI2(5)",
])
def test_involution_counts_match_the_reference_walk(label):
    grp = CoxeterGroup.from_spec(label)
    assert grp.spec.involution_count() == len(_reference_walk(grp))


@pytest.mark.parametrize("error,match", [(1, r"found 75 involutions of A5, not 76"),
                                         (-1, r"found more than 74 involutions of A5")])
def test_walk_checks_its_count(error, match, monkeypatch):
    real = coxeter.GroupSpec.involution_count
    monkeypatch.setattr(coxeter.GroupSpec, "involution_count", lambda self: real(self) + error)
    with pytest.raises(ToleranceError, match=match):
        CoxeterGroup.from_spec("A5").involution_perms()


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
    passes, labels = [], []
    lexmin_words = gr._lexmin_words

    def counted(vertices, lengths):
        passes.append(vertices)
        return lexmin_words(vertices, lengths)

    def counted_label(word):
        labels.append(word)
        return format_word(word)

    monkeypatch.setattr(gr, "_lexmin_words", counted)
    monkeypatch.setattr(gr, "format_word", counted_label)
    g = build_graph(CoxeterGroup.from_spec("A5"))
    g.to_json(), g.to_json(indent=2), g.to_dot()
    assert passes == [g.vertices]  # one word pass for the graph's three exports
    assert len(labels) == len(g) == 75


@pytest.mark.parametrize("label,shuffled", [
    *((label, False) for label in SUITE + ("B2xB2xB2xB2xB2", "H4", "E7")),
    ("B2xA1xA2", True),
])
def test_word_pass_matches_element_words(label, shuffled):
    vertices = enumerate_involutions(group(label))
    if shuffled:  # the pass takes the lengths, not the vertex order
        elems = list(vertices)
        random.Random(label).shuffle(elems)
        assert elems != vertices.elements
        vertices = FiniteInvolutionSet(group(label), _perm_array(elems))
    lengths = gr._lengths(vertices.words)
    assert gr._lexmin_words(vertices, lengths) == [e.word for e in vertices]


def test_word_pass_stops_at_shorter_involutions(monkeypatch):
    calls = []
    descents = CoxeterGroup._left_descents

    def counted(self, a):
        calls.append(a)
        return descents(self, a)

    g = graph("B2xB2xB2xB2xB2")
    monkeypatch.setattr(CoxeterGroup, "_left_descents", counted)
    words = gr._lexmin_words(g.vertices, gr._lengths(g.words))
    assert len(calls) == 10885  # one per peel step
    assert sum(map(len, words)) == 77760  # the peel steps of each word from scratch


@pytest.mark.parametrize("label", ["A5", "B2xA1xA2"])
def test_exports_ignore_the_vertex_order(label):
    grp = CoxeterGroup.from_spec(label)
    g = build_graph(grp)
    elems = list(g.vertices)
    random.Random(label).shuffle(elems)
    assert elems != g.vertices.elements
    vertices = FiniteInvolutionSet(grp, _perm_array(elems))
    shuffled = E0Graph(vertices)
    assert shuffled.to_json() == g.to_json()
    assert shuffled.to_json(indent=2) == g.to_json(indent=2)
    assert shuffled.to_dot() == g.to_dot()


def test_repeated_vertices_are_refused():
    # two rows of one involution would share an index key, and be merged
    grp = group("A3")
    perms = enumerate_involutions(grp).perms
    with pytest.raises(ToleranceError, match="keys collide: 2 keys for 3"):
        FiniteInvolutionSet(grp, perms[[0, 1, 0]])


def _counted_walks(monkeypatch):
    """The groups whose involution walk starts, in order."""
    walks, walk = [], CoxeterGroup._walk_involutions

    def counted(self, cap, count):
        walks.append(self)
        return walk(self, cap, count)

    monkeypatch.setattr(CoxeterGroup, "_walk_involutions", counted)
    return walks


def test_budget_refuses_during_the_walk(monkeypatch, tmp_path):
    # a group read from a JSON Coxeter matrix has no exact count of its
    # involutions, so its walk is held to the budget as it goes
    path = tmp_path / "a5.json"
    path.write_text(json.dumps({"rank": 5, "m": group("A5").matrix.entries}))
    cached = CoxeterGroup(CoxeterMatrix.from_json_file(path))
    assert cached.spec is None
    assert len(enumerate_involutions(cached)) == 75  # walked under the real budget
    per = gr.vertex_bytes(cached)
    monkeypatch.setattr(gr, "ADJACENCY_BUDGET", 7 * per - 1)  # 6 vertices; A5 has 75
    walks = _counted_walks(monkeypatch)
    grp = CoxeterGroup(CoxeterMatrix.from_json_file(path))
    with pytest.raises(SpecError, match=rf"custom\(rank=5\) has more than 6 involutions, at "
                                        rf"{per} bytes each more than ADJACENCY_BUDGET \("):
        build_graph(grp)
    assert walks == [grp] and not hasattr(grp, "_involutions")  # the walk was cut short
    with pytest.raises(SpecError, match="more than 6"):
        build_graph(cached)  # the cached walk is held to the budget too


def test_a15_is_refused_before_the_walk(monkeypatch):
    walks = _counted_walks(monkeypatch)
    grp = CoxeterGroup.from_spec("A15")
    assert grp.spec.involution_count() == 46206735
    limit = gr.ADJACENCY_BUDGET // gr.vertex_bytes(grp)
    assert limit > 199951  # E8's involutions, which build
    with pytest.raises(SpecError, match=rf"A15 has more than {limit} involutions, .* "
                                        r"more than ADJACENCY_BUDGET \("):
        build_graph(grp)
    assert walks == [] and not hasattr(grp, "_involutions")


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
    assert list(E0Graph(invs).adj) == want


@pytest.mark.parametrize("case", ["I2(65)", "A1xI2(64)", "337 r18"])
def test_row_matches_int_bitsets(case):
    nbits, _ = _n_set_case(case)
    g = _fresh_graph(case)
    for i, a in enumerate(nbits):
        assert g.row(i).tolist() == [j != i and a & b == 0 for j, b in enumerate(nbits)]
    assert "rows" not in g.__dict__


def test_neighborhood_builds_no_matrix():
    g = _fresh_graph("A5")
    elements = g.vertices.elements
    for i, x in enumerate(elements):
        assert g.neighborhood(x) == {elements[j] for j in range(len(g)) if g.has_edge(i, j)}
    assert "rows" not in g.__dict__


def _n_set_case(case):
    """(N-sets as ints, the (k, V) words the kernel reads) for a finite
    group's label, a ball "<group> r<radius>", or a hand-made case."""
    if case == "empty":
        return [], np.zeros((1, 0), dtype="<u8")
    if case == "unshared":  # 0 and 3 hold only roots no other N-set holds
        nbits = [0b1, 0b110, 0b1100, 0b110000 | 1 << 70, 0b1000]
    elif " r" in case:
        # a ball's N-sets as indices of a root system closed to its radius,
        # independent of the columns that the ball's own graph keys
        label, radius = case.split(" r")
        grp = (InfiniteCoxeterGroup(CoxeterMatrix([[1, 3, 7], [3, 1, 3], [7, 3, 1]]))
               if label == "337" else InfiniteCoxeterGroup.from_spec(label))
        roots = generate_root_system(grp.matrix, max_depth=int(radius))
        nbits = [sum(1 << p for p in roots.indices_of(grp.n_set_vectors([z.word])))
                 for z in enumerate_ball(grp, int(radius)).involutions()]
    else:
        grp = group(case)
        perms = [e.perm for e in enumerate_involutions(grp)]
        return [grp._n_bits(p) for p in perms], grp.n_set_words(perms)
    width = max(nbits).bit_length()
    nbytes = -(-width // 8)
    raw = np.frombuffer(b"".join(b.to_bytes(nbytes, "little") for b in nbits), np.uint8)
    member = np.unpackbits(raw.reshape(len(nbits), nbytes), axis=1, count=width,
                           bitorder="little").astype(bool)
    return nbits, pack_words(member)


@pytest.mark.parametrize("chunk", [gr.CHUNK_BYTES, 8])
@pytest.mark.parametrize("case", [*SUITE, "I2(63)", "I2(64)", "I2(65)", "I2(127)", "A1",
                                  "empty", "unshared", "U3 r10", "337 r18"])
def test_kernel_matches_int_oracle(monkeypatch, chunk, case):
    # at 8 bytes every table holds one group and one word, and every block
    # one vertex, so many table groups and row blocks are read
    monkeypatch.setattr(gr, "CHUNK_BYTES", chunk)
    nbits, words = _n_set_case(case)
    rows = gr._pairwise_disjoint_rows(words)
    V = len(nbits)
    assert rows.dtype == np.dtype("<u8") and rows.shape == (V, -(-V // 64))
    want = [sum(1 << j for j, b in enumerate(nbits) if a & b == 0 and j != i)
            for i, a in enumerate(nbits)]
    assert [int.from_bytes(row.tobytes(), "little") for row in rows] == want
    assert gr._degrees(words).tolist() == [bin(row).count("1") for row in want]


def _reference_rows(words):
    """The packed adjacency by a float product of the unpacked N-set bits,
    256 rows at a time: bit j of row i set iff i != j and no root is in both."""
    k, V = words.shape
    bits = np.unpackbits(np.ascontiguousarray(words.T).view(np.uint8), axis=1,
                         bitorder="little").astype(np.float32)
    rows = np.zeros((V, -(-V // 64)), dtype="<u8")
    for start in range(0, V, 256):
        apart = bits[start : start + 256] @ bits.T < 0.5
        apart[np.arange(len(apart)), np.arange(start, start + len(apart))] = False
        packed = np.packbits(apart, axis=1, bitorder="little")
        rows[start : start + 256].view(np.uint8)[:, : packed.shape[1]] = packed
    return rows


def _fresh_graph(case):
    """An unbuilt graph: a finite group's, in the walk's vertex order or,
    for "<group> shuffled", in a seeded shuffle of it, or a ball's
    ("<group> r<radius>")."""
    if case.endswith(" shuffled"):
        grp = group(case.split()[0])
        order = list(range(len(enumerate_involutions(grp))))
        random.Random(case).shuffle(order)
        return E0Graph(FiniteInvolutionSet(grp, enumerate_involutions(grp).perms[order]))
    if " r" not in case:
        return E0Graph(enumerate_involutions(group(case)))
    label, radius = case.split(" r")
    grp = (InfiniteCoxeterGroup(CoxeterMatrix([[1, 3, 7], [3, 1, 3], [7, 3, 1]])) if label == "337"
           else InfiniteCoxeterGroup(CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])) if label == "A2~"
           else InfiniteCoxeterGroup.from_spec(label))
    g = involution_graph(grp, int(radius))
    return E0Graph(g.vertices, g.radius)


def _blocks_match_reference(g):
    # the row blocks against the float product, and the column pass's
    # valencies against the blocks' popcounts
    want = _reference_rows(g.words)
    assert np.array_equal(g.rows, want)
    assert g.degrees() == np.bitwise_count(g.rows).sum(axis=1).tolist()


# the graphs the balls benchmark builds: its evidence radii plus extra, and
# the product check's factor
BENCH_BALLS = ["U3 r12", "U4 r8", "337 r18", "A2~ r30", "U3 r6"]


@pytest.mark.parametrize("chunk", [gr.CHUNK_BYTES, 8])
@pytest.mark.parametrize("case", [*SUITE, *BENCH_BALLS, "D5 shuffled", "I2(65) shuffled",
                                  "B2xA1xA2 shuffled", "A6 shuffled"])
def test_row_blocks_match_a_product(monkeypatch, chunk, case):
    # at 8 bytes every block holds 8 rows, every table one group and word,
    # and every gather of the column pass one row
    monkeypatch.setattr(gr, "CHUNK_BYTES", chunk)
    _blocks_match_reference(_fresh_graph(case))


@pytest.mark.parametrize("label", ["B2xB2xB2xB2xB2", "E7", "B8"])
def test_large_row_blocks_match_a_product(label):
    _blocks_match_reference(_fresh_graph(label))


def _positive_root_cut(g):
    """The length cut of a finite group's graph from |Phi+|: row i has no
    bit past the last vertex of length <= |Phi+| - l(i)."""
    lengths = gr._lengths(g.words)
    P = g.group.pos_count
    last = np.full(P + 1, -1)  # last[l]: the last vertex of length <= l
    np.maximum.at(last, lengths, np.arange(len(lengths)))
    return np.maximum.accumulate(last)[P - lengths] + 1


@pytest.mark.parametrize("case", [*SUITE, "E7", "B2xB2xB2xB2xB2", "D5 shuffled"])
def test_reach_is_the_positive_root_cut(case):
    # the highest root an N-set holds is the last of Phi+, as N(w0) = Phi+
    g = _fresh_graph(case)
    assert np.array_equal(gr._reach(g.words), _positive_root_cut(g))


def test_length_cut_skips_columns(monkeypatch):
    # a length-1 row can meet all but w0 (length 63 = |Phi+|), and w0 none.
    # The column pass tables each (group, word) cell once and gathers under
    # two thirds of the (row, word) cells; the row blocks table under two
    # thirds of their (group, word) cells
    g = _fresh_graph("E7")
    reach = gr._reach(g.words)
    assert reach[0] == len(g) - 1 and reach[-1] == 0
    tabled, gathered = [], []
    subset_ors, ors = gr._subset_ors, gr._Kernel.ors

    def counted_tables(cols):
        tabled.append(cols.shape[0] * cols.shape[2])
        return subset_ors(cols)

    def counted_gathers(self, tables, rows, out):
        gathered.append(out.size)
        return ors(self, tables, rows, out)

    monkeypatch.setattr(gr, "_subset_ors", counted_tables)
    monkeypatch.setattr(gr._Kernel, "ors", counted_gathers)
    assert g.edge_count() == 360564
    W, G = -(-len(g) // 64), gr._Kernel(g.words).G
    assert sum(tabled) == G * W
    assert 0 < sum(gathered) < len(g) * W * 2 / 3
    tabled.clear()
    for _ in gr._row_blocks(g.words):
        pass
    full = -(-len(g) // gr._block_rows()) * G * W  # (group, word) cells uncut
    assert 0 < sum(tabled) < full * 2 / 3


def test_e7_peak_is_below_its_matrix_and_within_its_count(monkeypatch):
    # valencies, components, diameter and pendants hold no adjacency matrix,
    # and the walk's count per involution covers what the build holds
    grp = CoxeterGroup.from_spec("E7")  # fresh: nothing cached
    tracemalloc.start()
    try:
        g = build_graph(grp)
        assert valency_distribution(g).total == 10207
        assert components_and_diameter(g)[1] == 3
        assert pendant_report(grp).match
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10207 * -(-10207 // 64) * 8  # 13 MB
    monkeypatch.setattr(gr, "ADJACENCY_BUDGET", peak - 1)
    with pytest.raises(SpecError, match="E7 has more than"):
        build_graph(CoxeterGroup.from_spec("E7"))


def test_e7_builds_few_elements(monkeypatch):
    # the vertex set is arrays: the build, the valencies, the components and
    # diameter, and the pendants build an element only for each pendant and
    # each predicted one, and the two witnesses at distance 3
    grp = CoxeterGroup.from_spec("E7")  # fresh: nothing cached
    built, real = [], Element.__init__

    def counted(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(Element, "__init__", counted)
    g = build_graph(grp)
    assert valency_distribution(g).total == 10207 and not built
    assert components_and_diameter(g)[1] == 3
    report = pendant_report(grp)
    assert report.match and len(report.computed) == grp.rank
    assert len(built) <= grp.rank + len(report.computed) + 4


def test_rows_are_budgeted(monkeypatch, capsys):
    g = graph("A5")
    fresh = E0Graph(g.vertices)  # 75 vertices, 2 words a row
    monkeypatch.setattr(gr, "ADJACENCY_BUDGET", 75 * 2 * 8 - 1)
    with pytest.raises(SpecError, match=r"A5 needs 1200 bytes, more than ADJACENCY_BUDGET \(1199"):
        fresh.rows
    assert fresh.edge_count() == g.edge_count()  # the valencies need no matrix
    # the universal check scans U2's graph at radius 10: 10 vertices, 1 word a row
    monkeypatch.setattr(gr, "ADJACENCY_BUDGET", 79)
    assert cli.main(["verify", "lem-universal"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and "ADJACENCY_BUDGET (79" in out.err


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


def is_adjacent(x, y):
    """The oracle edge test on Python ints: N(x) and N(y) disjoint (x, y
    involutions of a finite group, x != y)."""
    g = x.group
    return g._n_bits(x.perm) & g._n_bits(y.perm) == 0


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

def _iter_bits(bits):
    """The indices of the set bits of an int, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


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
    """Components, as frozensets of vertex indices, by lowest vertex index;
    hat diameter as the largest BFS distance between two vertices of the
    component without w0."""
    w0 = g.vertices.index_of(g.group.longest_element())
    adj = list(g.adj)
    comps, seen, hat_diameter = [], 0, 0
    for i in range(len(g)):
        reach, layers = _bfs(adj, i)
        if not (seen >> i) & 1:
            comps.append(frozenset(_iter_bits(reach)))
            seen |= reach
        if not (reach >> w0) & 1:
            hat_diameter = max(hat_diameter, len(layers) - 1)
    return comps, hat_diameter


@pytest.mark.parametrize("label", SUITE + ("D7", "E6", "H4", "A1xA1xA1", "B2xA1xA2"))
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
    w0 = g.vertices.index_of(g.group.longest_element())
    vertices = copy.copy(g.vertices)
    vertices.words = np.repeat(g.words[:, [w0]], len(g), axis=1)  # N = Phi+
    bare = E0Graph(vertices)
    with pytest.raises(ValueError, match="expected one component away from w0, found 8"):
        components_and_diameter(bare)


def test_graph_distance():
    g = graph("A3")
    grp = group("A3")
    assert graph_distance(g, grp.generator(1), grp.generator(2)) == 1
    assert graph_distance(g, grp.generator(1), grp.generator(1)) == 0
    w0 = grp.longest_element()
    assert graph_distance(g, w0, grp.generator(1)) is None


def test_graph_distance_finds_w0_once_per_graph(monkeypatch):
    g = build_graph(CoxeterGroup.from_spec("A4"))
    looked_up, index_of = [], InvolutionSet.index_of

    def counted(self, x):
        looked_up.append(x)
        return index_of(self, x)

    monkeypatch.setattr(InvolutionSet, "index_of", counted)
    w0 = g.group.longest_element()
    others = [x for x in g.vertices if x != w0]
    for x, y in zip(others, others[1:]):
        graph_distance(g, x, y)
    assert looked_up.count(w0) == 1
    assert len(looked_up) == 2 * (len(others) - 1) + 1  # x and y per query, and w0


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


@pytest.mark.parametrize("label", ["A4", "B3", "B2xA1xA2", "I2(7)", "A1xA1"])
def test_graph_distance_matches_bfs(label):
    _distances_match_bfs(graph(label))


@pytest.mark.parametrize("label", ["A4", "B3", "B2xA1xA2"])
def test_graph_distance_in_small_chunks(label, monkeypatch):
    monkeypatch.setattr(gr, "CHUNK_BYTES", 8)  # every gather holds one row
    _distances_match_bfs(graph(label))


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
            for i in {i for i in grp.generators if x.perm[i - 1] >= grp.pos_count}:
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
@pytest.mark.parametrize("chunk", [8, 256, None])
def test_edges_match_bit_rows(label, chunk, monkeypatch):
    # 8 unpacks one row a piece (two on A2) and cuts the row blocks at 8
    # rows; 256 unpacks several rows a piece
    if chunk is not None:
        monkeypatch.setattr(gr, "CHUNK_BYTES", chunk)
    g = graph(label)
    *_, order = g._export_order
    rank = np.argsort(order)  # the export id of each vertex
    # the bits of g.adj in export ids, upper triangle, row by row
    want = sorted((int(rank[i]), int(rank[j])) for i, row in enumerate(g.adj)
                  for j in _iter_bits(row) if rank[i] < rank[j])
    assert len(want) == g.edge_count()
    pieces = list(g._edge_blocks("", ",", "", ";"))
    assert "".join(pieces) == ";".join(f"{a},{b}" for a, b in want)
    rows = len({a for a, _ in want})
    if chunk == 8 and len(g) > 8:
        assert len(pieces) == rows
    if chunk == 256 and len(g) > 8:
        assert len(pieces) < rows
    dot = [line for line in g.to_dot().splitlines() if " -- " in line]
    assert dot == [f"  v{a} -- v{b};" for a, b in want]
    assert json.loads(g.to_json())["edges"] == [[a, b] for a, b in want]


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
    ("D5", None): "14bb294a98124688d3413125c956a5b6e36f9d061da80e831707ce7f5987fd6e",
    ("D5", 2): "a3ba11e184ff80d53e8f3a1136745d6a62d99de650f6421b833f8b3a68b33dc0",
    ("E6", None): "4f618cc409797043782616df6512372520ef0cc4b76c2bd6da4bc80ae9d95ccd",
    ("E6", 2): "dd78b16bf98ba0f4bccee8b1660d7f94b961bc71365291f8eee6da2b1bb1c105",
}


@pytest.mark.parametrize("label,indent", sorted(JSON_SHA256, key=str))
def test_json_export_is_one_document(label, indent, monkeypatch):
    monkeypatch.setattr(gr, "CHUNK_BYTES", 256)  # several pieces even on A5
    text = build_graph(CoxeterGroup.from_spec(label)).to_json(indent=indent)
    assert json.dumps(json.loads(text), indent=indent) == text
    assert hashlib.sha256(text.encode()).hexdigest() == JSON_SHA256[label, indent]


@pytest.mark.parametrize(
    "kwargs", [{"indent": "\t"}, {"separators": (",", ":")}, {"sort_keys": True, "indent": 1}]
)
def test_json_export_takes_any_dumps_arguments(kwargs, monkeypatch):
    monkeypatch.setattr(gr, "CHUNK_BYTES", 256)
    g = build_graph(CoxeterGroup.from_spec("B2xA1xA2"))
    assert g.to_json(**kwargs) == json.dumps(json.loads(g.to_json()), **kwargs)


@pytest.mark.parametrize("which", ["B2xA1xA2", "U3 ball"])
def test_exports_do_not_depend_on_the_block(which, monkeypatch):
    # CHUNK_BYTES 8 writes one row a piece and cuts the row blocks at 8
    # rows; 256 puts several rows in a piece; the ball has rows with no edge
    # to a later export id
    if which == "U3 ball":
        g = enumerate_ball(InfiniteCoxeterGroup.from_spec("U3"), 4).graph
    else:
        g = build_graph(CoxeterGroup.from_spec(which))
    kwargs = [{}, {"indent": 2}, {"separators": (",", ":")}]
    want = [g.to_json(**k) for k in kwargs], g.to_dot()
    for chunk in (8, 256):
        monkeypatch.setattr(gr, "CHUNK_BYTES", chunk)
        assert ([g.to_json(**k) for k in kwargs], g.to_dot()) == want


# SHA-256 of to_dot() when each edge was formatted on its own
DOT_SHA256 = {
    "A1": "3f3deae1482538c8ae93905076633f01e32f6327fb04f76f3220847ae3fc9577",
    "A2": "16d54c4cae75456eed5d901e30247e1dbc53ed48211e78730f290307d26ec76a",
    "A5": "b0f131366c9329f7a2d7b44d8374027d6dbbe843ef0102915fb21aa6ae318749",
    "B2xA1xA2": "73ba96ff8615867272852022f5b45cbee5c77dde3fe37807fe6f61c81a02c629",
    "D5": "ba3131d28218c8b5f6ad6e0c38b47cf1cfdc19537cd39597340f6ef8331b723b",
    "E6": "2af6a29c38ab497bc494212b9b24002e55425711e2114d3dd2b5727cc23eaae4",
}


@pytest.mark.parametrize("label", sorted(DOT_SHA256))
@pytest.mark.parametrize("rows", [1, 3, 4])  # rows a piece; the 8-row blocks cut some 3s
def test_dot_export_is_pinned(label, rows, monkeypatch):
    g = build_graph(CoxeterGroup.from_spec(label))
    monkeypatch.setattr(gr, "CHUNK_BYTES", rows * len(g))  # `_block_rows()` is 8 below 4096
    text = g.to_dot()
    assert hashlib.sha256(text.encode()).hexdigest() == DOT_SHA256[label]


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
