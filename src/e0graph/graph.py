"""The excess-zero graph on the non-identity involutions of a finite group.

Vertices are the involutions, produced by the involution walk of
`CoxeterGroup.involution_perms` (the rest of the group is never visited) and
numbered by length, ties kept in walk order.  Valencies, components, the
diameter and the pendants do not depend on that numbering, so no word is
computed to build or measure the graph.  Only the JSON/DOT exports show
vertex ids: they number the vertices by (length, lexmin word), through a
permutation each graph computes once.  x and y are joined exactly when
l(xy) = l(x) + l(y), which happens iff N(x) and N(y) are disjoint.  The
N-sets of all vertices are packed into k = ceil(|Phi+| / 64) machine words
each (`CoxeterGroup.n_set_words`), so building the graph is a pairwise AND
over k vectors of words, whatever the width.  The adjacency is one packed
V x ceil(V/64) little-endian uint64 matrix, `E0Graph.rows` (bit j of row i
set iff i and j are joined, zero padding past column V), and every reader
uses it as it is.  The walk stops, and the group is refused, once it finds
more involutions than `vertex_limit` allows: a matrix within
`ADJACENCY_BUDGET`.  So B8, E7xA1 and D9 build, and E8, A11 and A15 are
refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import isqrt

import numpy as np

from .coxeter import (
    CoxeterGroup,
    Element,
    SpecError,
    ascending,
    descending,
    format_word,
    parse_word,
)

# the working-set size of one block of the numpy kernels: the build's AND
# temporary, the unpacked bit rows and the gathers of the row unions
CHUNK_BYTES = 1 << 20
# the most bytes build_graph spends on the adjacency matrix; E8 would need about 5 GB
ADJACENCY_BUDGET = 1 << 30
# the edges the exports format at a time
EXPORT_BLOCK = 1 << 13
# stands for the edge list in the JSON export's frame; no label or word holds it
_MARK = "\0edges"


def vertex_limit():
    """The most involutions the graph layer takes on: the largest V whose
    V x ceil(V/64) uint64 adjacency matrix fits `ADJACENCY_BUDGET`."""
    V = isqrt(8 * ADJACENCY_BUDGET)  # V^2/8 bytes, before rounding rows up to words
    while V * -(-V // 64) * 8 > ADJACENCY_BUDGET:
        V -= 1
    return V


class InvolutionSet:
    """The non-identity involutions of a finite group, in a fixed order.

    `enumerate_involutions` orders them by length, ties kept in walk order.
    Indices are internal: the exports renumber the vertices (see
    `E0Graph.to_json`).
    """

    def __init__(self, group, elements):
        self.group = group
        self.elements = elements
        self.index = {e.perm: i for i, e in enumerate(elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, x):
        try:
            return self.index[x.perm]
        except KeyError:
            raise ValueError(f"{x!r} is not a non-identity involution of this group")


def enumerate_involutions(group):
    """All w != 1 with w^2 = 1, from the involution walk (cached).

    Ordered by a stable sort on length, so ties keep the walk's order and
    no word is computed.  Raises SpecError, without finishing the walk, once
    it finds more than `vertex_limit()` involutions.
    """
    if not isinstance(group, CoxeterGroup):
        raise SpecError(f"{group.label} is infinite; use the ball explorer")
    perms = group.involution_perms(vertex_limit())
    cached = getattr(group, "_involutions", None)
    if cached is not None:
        return cached
    P = group.pos_count
    a = np.frombuffer(b"".join(perms), dtype=np.uint8).reshape(len(perms), 2 * P)
    order = np.argsort(np.count_nonzero(a[:, :P] >= P, axis=1), kind="stable")
    invset = InvolutionSet(group, [Element(group, perms[i]) for i in order.tolist()])
    group._involutions = invset
    return invset


def is_adjacent(x, y):
    """Edge test: N(x) and N(y) disjoint (x, y involutions, x != y)."""
    g = x.group
    return g._n_bits(x.perm) & g._n_bits(y.perm) == 0


class E0Graph:
    """The graph itself: the involution vertices and the adjacency matrix `rows`."""

    def __init__(self, group, vertices, rows):
        self.group = group
        self.vertices = vertices
        self.rows = rows
        self._export = None  # (words, rank), see _export_order

    @property
    def adj(self):
        """The rows as V-bit ints, for the benchmark's distance oracle
        (`perfbench/workloads.py::_distance_ok`) only; nothing in the library
        reads it.  Goes once that oracle calls `has_edge`."""
        return [int.from_bytes(row.tobytes(), "little") for row in self.rows]

    def __len__(self):
        return len(self.vertices)

    def degree(self, i):
        return int(np.bitwise_count(self.rows[i]).sum())

    def has_edge(self, i, j):
        """Whether vertices i and j (indices) are adjacent."""
        return bool(self.rows[i, j >> 6] >> (j & 63) & 1)

    def degrees(self):
        step = max(1, CHUNK_BYTES // self.rows.strides[0])  # bounds the popcount temporary
        return [d for s in range(0, len(self), step)
                for d in np.bitwise_count(self.rows[s : s + step]).sum(axis=1).tolist()]

    def edge_count(self):
        return sum(self.degrees()) // 2

    def _edge_arrays(self):
        """The edges as (i, j) index arrays, i < j, in row-major order, one
        row block at a time."""
        V = len(self.rows)
        for start, bits in _bit_blocks(self.rows):
            i, j = np.divmod(np.flatnonzero(bits) + start * V, V)
            upper = j > i
            yield i[upper], j[upper]

    def edges(self):
        """Every edge (i, j), i < j, in row-major order."""
        return [e for i, j in self._edge_arrays() for e in zip(i.tolist(), j.tolist())]

    def neighborhood(self, x):
        """The set of vertices adjacent to x."""
        i = self.vertices.index_of(x)
        return {self.vertices.elements[j] for j in _set_bits(self.rows[i]).tolist()}

    def _export_order(self):
        """(words, rank): the lexmin words in export order, and the export id
        of each vertex index.  Export ids number the vertices by (length,
        lexmin word); the words are computed here only, once per graph."""
        if self._export is None:
            words = [e.word for e in self.vertices]
            # a lexmin word is reduced, so its length is the element's
            order = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order))
            self._export = [words[i] for i in order], rank
        return self._export

    def _export_edges(self):
        """The edges in export ids: (i, j) arrays, i < j, in row-major order,
        `EXPORT_BLOCK` edges at a time.  Each edge is coded i * V + j, and
        one sort of the codes gives the row-major order."""
        _, rank = self._export_order()
        V = len(rank)
        codes = []
        for i, j in self._edge_arrays():
            a, b = rank[i], rank[j]
            codes.append(np.minimum(a, b) * V + np.maximum(a, b))
        codes = np.sort(np.concatenate(codes))
        for start in range(0, len(codes), EXPORT_BLOCK):
            yield np.divmod(codes[start : start + EXPORT_BLOCK], V)

    def to_json(self, **kwargs):
        """`json.dumps(doc, **kwargs)` of the graph in export ids, where doc is
        {"group", "vertices": [{"id", "word", "length"}, ...], "edges": [[i, j], ...]}.

        The edge list is never built whole, and json never encodes an edge.
        doc is encoded once with two edges of markers in place of the edge
        list; the text between the markers is what json writes inside an
        edge and between two edges, and every edge is formatted with it.
        """
        words, _ = self._export_order()
        doc = {
            "group": self.group.label,
            "vertices": [
                {"id": i, "word": format_word(w), "length": len(w)}
                for i, w in enumerate(words)
            ],
            "edges": [],
        }
        if not self.rows.any():
            return json.dumps(doc, **kwargs)
        doc["edges"] = [[_MARK, _MARK], [_MARK, _MARK]]
        head, mid, sep, _, tail = json.dumps(doc, **kwargs).split(json.dumps(_MARK))
        body = (  # one string per block, not per edge
            sep.join(f"{a}{mid}{b}" for a, b in zip(i.tolist(), j.tolist()))
            for i, j in self._export_edges()
        )
        return head + sep.join(body) + tail

    def to_dot(self):
        words, _ = self._export_order()
        lines = [f'graph "{self.group.label}" {{']
        lines.extend(f'  v{i} [label="{format_word(w)}"];' for i, w in enumerate(words))
        for i, j in self._export_edges():  # one string per block, not per edge
            pairs = zip(i.tolist(), j.tolist())
            lines.append("\n".join(f"  v{a} -- v{b};" for a, b in pairs))
        lines.append("}")
        return "\n".join(lines)


def build_graph(group):
    """Build the excess-zero graph of a finite group (cached on the group).

    Raises SpecError, during the involution walk and so before the vertices
    are sorted or the adjacency allocated, when the group has more than
    `vertex_limit()` involutions.
    """
    cached = getattr(group, "_e0graph", None)
    if cached is not None:
        return cached
    vertices = enumerate_involutions(group)
    words = group.n_set_words([e.perm for e in vertices])
    g = E0Graph(group, vertices, _pairwise_disjoint_rows(words))
    group._e0graph = g
    return g


def _pairwise_disjoint_rows(words):
    """The adjacency matrix: bit j of row i set iff N-sets i and j are disjoint.

    `words` is the (k, V) word-major N-set array of `n_set_words`.  Identity
    is excluded from the vertex set, so every N-set is non-empty and the
    diagonal comes out empty by itself.  Rows are built in blocks whose
    uint64 AND temporaries stay within `CHUNK_BYTES` each, and each block is
    packed straight into the zeroed matrix.
    """
    V = words.shape[1]
    rows = np.zeros((V, -(-V // 64)), dtype="<u8")
    out = rows.view(np.uint8)
    block = max(1, CHUNK_BYTES // (8 * max(V, 1)))
    for start in range(0, V, block):
        meet = words[0, start : start + block, None] & words[0, None, :]
        for word in words[1:]:
            meet |= word[start : start + block, None] & word[None, :]
        packed = np.packbits(meet == 0, axis=1, bitorder="little")
        out[start : start + len(packed), : packed.shape[1]] = packed
    return rows


def _set_bits(row):
    """The indices of the set bits of a packed row, ascending."""
    return np.flatnonzero(np.unpackbits(row.view(np.uint8), bitorder="little"))


def _bit_blocks(rows):
    """(start, bool block) pairs: rows start.. of a packed V x ceil(V/64)
    matrix unpacked to V columns each, in blocks of about `CHUNK_BYTES`."""
    V = len(rows)
    step = max(1, CHUNK_BYTES // max(V, 1))
    for start in range(0, V, step):
        block = rows[start : start + step].view(np.uint8)
        yield start, np.unpackbits(block, axis=1, count=V, bitorder="little").view(bool)


@dataclass
class ValencyDistribution:
    """Sorted (valency, count) pairs; rendered in the dotted i^k notation."""

    pairs: tuple

    @classmethod
    def from_graph(cls, g):
        return cls.from_pairs(zip(*np.unique(g.degrees(), return_counts=True)))

    @classmethod
    def from_pairs(cls, pairs):
        return cls(tuple(sorted((int(v), int(c)) for v, c in pairs)))

    @property
    def total(self):
        return sum(c for _, c in self.pairs)

    def __str__(self):
        return ".".join(f"{v}^{c}" for v, c in self.pairs)

    def to_csv(self):
        lines = ["valency,count"]
        lines.extend(f"{v},{c}" for v, c in self.pairs)
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps({"pairs": [[v, c] for v, c in self.pairs]})


def valency_distribution(g):
    return ValencyDistribution.from_graph(g)


def components_and_diameter(g):
    """Connected components plus the diameter of the component without w0.

    Components come from a frontier search over the adjacency rows
    (`_layer`), listed by lowest vertex index.  For the diameter, every
    hat vertex's ball grows one radius per pass as a packed bit row: the
    next ball is the OR of the balls over the closed neighbourhood, gathered
    with `take` and ORed with `bitwise_or.reduceat`, `CHUNK_BYTES` of rows at
    a time so the gather stays in cache.  Radius 1 is the closed
    neighbourhood itself.  A row that has become the whole hat leaves the
    passes, and the last pass that finishes a row gives the diameter.
    Memory: two V x ceil(V/64) uint64 matrices besides the adjacency (the
    balls, and the next balls of the rows still growing), the closed
    neighbour lists (2E + V int32 indices) and one gather buffer, the larger
    of `CHUNK_BYTES` and the largest closed neighbourhood's rows.  Vertex
    indices are the internal ones of `InvolutionSet`, not export ids.
    Raises for rank-1 groups, whose "hat" component is empty and has no
    diameter.
    """
    group = g.group
    if group.rank < 2:
        raise ValueError("rank-1 group: the component away from w0 is empty, "
                         "its diameter is undefined")
    rows, comps = g.rows, []
    unseen = np.ones(len(rows), dtype=bool)
    while unseen.any():  # one frontier search from the lowest unseen vertex
        reach = frontier = _with_bit(np.zeros_like(rows[0]), int(np.argmax(unseen)))
        while frontier.any():
            reach, frontier = _layer(rows, reach, frontier)
        comps.append(reach)
        unseen[_set_bits(reach)] = False
    elements = g.vertices.elements
    components = [frozenset(elements[i] for i in _set_bits(c).tolist()) for c in comps]
    w0_idx = g.vertices.index_of(group.longest_element())
    hat = [c for c in comps if not c[w0_idx >> 6] >> (w0_idx & 63) & 1]
    if len(hat) != 1:
        raise ValueError(f"expected one component away from w0, found {len(hat)}")
    return components, _component_diameter(g, hat[0])


def _with_bit(row, v):
    """A copy of the packed row with bit v set."""
    row = row.copy()
    row[v >> 6] |= 1 << (v & 63)
    return row


def _layer(rows, reach, frontier):
    """One search layer: the packed ball `reach` grown by the rows of the
    vertices in its `frontier`, and the new frontier.  The rows are gathered
    `CHUNK_BYTES` at a time."""
    grown = reach.copy()
    idx = _set_bits(frontier)
    step = max(1, CHUNK_BYTES // rows.strides[0])
    for start in range(0, len(idx), step):
        grown |= np.bitwise_or.reduce(rows[idx[start : start + step]], axis=0)
    return grown, grown & ~reach


def _component_diameter(g, target):
    """The diameter of the component whose packed row is `target` (see
    `components_and_diameter`)."""
    V = len(g)
    size = int(np.bitwise_count(target).sum())
    in_comp = np.unpackbits(target.view(np.uint8), count=V, bitorder="little").view(bool)
    # the balls of radius 1: every row gains its own vertex
    reach = g.rows.copy()
    v = np.arange(V)
    reach.view(np.uint8)[v, v // 8] |= (1 << v % 8).astype(np.uint8)
    W = reach.shape[1]
    indices = np.concatenate(
        [(np.flatnonzero(bits) % V).astype(np.int32) for _, bits in _bit_blocks(reach)]
    )
    lens = np.array(g.degrees()) + 1
    growing = in_comp & (lens < size)  # radius 1 is not yet the component
    indices, lens, active = indices[np.repeat(growing, lens)], lens[growing], np.flatnonzero(growing)
    step = max(1, CHUNK_BYTES // (8 * W))  # rows gathered at a time
    gather = np.empty((max(step, lens.max(initial=1)), W), dtype=reach.dtype)
    radius = int(size > 1)
    while active.size:
        radius += 1
        offs = np.concatenate(([0], np.cumsum(lens)))
        grown = np.empty((active.size, W), dtype=reach.dtype)
        p = 0
        while p < active.size:
            # vertices p..q-1 gather at most `step` rows, or q = p + 1
            q = max(p + 1, int(np.searchsorted(offs, offs[p] + step, "right")) - 1)
            buf = gather[: offs[q] - offs[p]]
            np.take(reach, indices[offs[p] : offs[q]], axis=0, out=buf, mode="clip")
            np.bitwise_or.reduceat(buf, offs[p:q] - offs[p], axis=0, out=grown[p:q])
            p = q
        reach[active] = grown
        growing = (grown != target).any(axis=1)
        indices, lens, active = indices[np.repeat(growing, lens)], lens[growing], active[growing]
    return radius


def graph_distance(g, x, y):
    """Shortest-path distance between two vertices; None when disconnected.

    A bidirectional search: the distance is the least r + s for which the
    ball of radius r around x meets the ball of radius s around y.  Both
    balls start at radius 1, straight from the two adjacency rows, and then
    grow one layer at a time on the side whose frontier is smaller.
    """
    i, j = g.vertices.index_of(x), g.vertices.index_of(y)
    if i == j:
        return 0
    if g.has_edge(i, j):
        return 1
    rows = g.rows
    frontier = [rows[i], rows[j]]
    reach = [_with_bit(rows[i], i), _with_bit(rows[j], j)]
    d = 2
    while not (reach[0] & reach[1]).any():
        if not (frontier[0].any() and frontier[1].any()):
            return None  # one ball is a whole component
        sizes = [np.bitwise_count(f).sum() for f in frontier]
        s = 0 if sizes[0] <= sizes[1] else 1
        reach[s], frontier[s] = _layer(rows, reach[s], frontier[s])
        d += 1
    return d


def excess(group, w):
    """min l(x) + l(y) - l(w) over factorizations w = xy into involutions.

    x runs over the involutions and the identity, ordered by length, with an
    early exit once the minimum possible value 0 is achieved.  Defined for
    finite groups, where every element has such a factorization.
    """
    if not isinstance(group, CoxeterGroup):
        raise SpecError("excess is computed over finite groups only")
    invs = enumerate_involutions(group)
    lw = w.length
    ident = group.identity
    best = None
    for x in chain((ident,), invs):
        y = x.inverse() * w
        if not (y.is_identity() or y.is_involution()):
            continue
        e = x.length + y.length - lw
        if best is None or e < best:
            best = e
        if best == 0:
            return 0
    if best is None:
        raise ValueError(f"{w!r} is not a product of two involutions")
    return best


def pendant_elements(g):
    """Vertices of valency exactly 1."""
    return {e for e, d in zip(g.vertices, g.degrees()) if d == 1}


_E6_PENDANT_WORDS = (
    (2,),
    (4,),
    (5, 4, 3),
    (3, 4, 5),
    (6, 5, 4, 3, 1),
    (1, 3, 4, 5, 6),
)

# types whose longest element is central
_CENTRAL_W0 = ("B", "F", "H")


def predicted_pendants(group):
    """Closed-form pendant set for a finite irreducible group of rank >= 2.

    Central-w0 types give {w0 r : r in R}; types A_n, D_n (n odd), E6 and
    I2(m) with m odd have their own explicit word lists.
    """
    spec = group.spec
    if spec is None or spec.is_product:
        raise SpecError("pendant prediction applies to irreducible groups only")
    if not spec.is_finite:
        raise SpecError("pendant prediction applies to finite groups only")
    (family, p), = spec.factors
    n = group.rank
    if n < 2:
        raise SpecError("pendant prediction needs rank >= 2")
    w0 = group.longest_element()
    gens = [group.generator(i) for i in group.generators]

    def from_words(words):
        return {w0 * group.element_from_word(w) for w in words}

    if family in _CENTRAL_W0 or (family == "D" and p % 2 == 0):
        return {w0 * r for r in gens}
    if family == "I2":
        if p % 2 == 0:
            return {w0 * r for r in gens}
        return from_words([(1, 2), (2, 1)])
    if family == "A":
        return from_words(sequential_shapes(n))
    if family == "D":  # p odd here
        words = [(i,) for i in range(1, n - 1)]
        words.append((n, n - 2, n - 1))
        words.append((n - 1, n - 2, n))
        return from_words(words)
    if family == "E":
        if p != 6:
            return {w0 * r for r in gens}  # E7/E8 have central w0
        return from_words(_E6_PENDANT_WORDS)
    raise SpecError(f"no pendant prediction for type {spec.label}")


@dataclass
class PendantReport:
    """Computed valency-1 vertices against the closed-form prediction."""

    group_label: str
    computed: frozenset
    predicted: frozenset

    @property
    def match(self):
        return self.computed == self.predicted


def pendant_report(group):
    g = build_graph(group)
    return PendantReport(
        group.label,
        frozenset(pendant_elements(g)),
        frozenset(predicted_pendants(group)),
    )


def delta1_of_w0x(group, x):
    """Neighbours of w0 x, computed as {w in I(W) : l(xw) = l(x) - l(w)}.

    Requires w0 x to be a non-identity involution; agrees with the graph
    neighbourhood without building the graph.
    """
    w0 = group.longest_element()
    v = w0 * x
    if v.is_identity() or not v.is_involution():
        raise ValueError("w0 x is not a non-identity involution")
    lx = x.length
    out = set()
    for w in enumerate_involutions(group):
        if (x * w).length == lx - w.length:
            out.add(w)
    return out


def is_sequential(word, ambient_rank):
    """Match a type-A element against the staircase shape.

    Returns (a, rise, drop) when the element of W(A_n) given by the reduced
    word also has a reduced expression
    [a-drop, ..., a-1] + [a+rise, a+rise-1, ..., a], else None.
    """
    group = _type_a_group(ambient_rank)
    if isinstance(word, str):
        word = parse_word(word)
    x = group.element_from_word(word)
    k = len(word)
    if x.length != k:
        raise ValueError("word must be reduced")
    if k == 0:
        return None
    n = ambient_rank
    for a in range(1, n + 1):
        for rise in range(0, min(n - a, k - 1) + 1):
            drop = k - 1 - rise
            if a - drop < 1:
                continue
            cand = ascending(a - drop, a - 1) + descending(a + rise, a)
            if group.element_from_word(cand) == x:
                return (a, rise, drop)
    return None


def sequential_shapes(n):
    """The words [i..(n+1-i)] and [(n+1-i)..i] for i up to ceil(n/2)."""
    out = []
    for i in range(1, -(-n // 2) + 1):
        out.append(ascending(i, n + 1 - i))
        out.append(descending(n + 1 - i, i))
    return out


@lru_cache(maxsize=None)
def _type_a_group(n):
    return CoxeterGroup.from_spec(f"A{n}")
