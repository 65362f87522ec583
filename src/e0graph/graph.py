"""The excess-zero graph on the non-identity involutions of a finite group.

Vertices are the involutions, produced by the involution walk of
`CoxeterGroup.involution_perms` (the rest of the group is never visited) and
numbered by length, ties kept in walk order.  Valencies, components, the
diameter and the pendants do not depend on that numbering, so no word is
computed to build or measure the graph.  Only the JSON/DOT exports show
vertex ids: they number the vertices by (length, lexmin word), through a
permutation each graph computes once, and write each vertex's run of edges
to later ids with one str.join (`E0Graph._edge_blocks`).  x and y are joined
exactly when l(xy) = l(x) + l(y), which happens iff N(x) and N(y) are
disjoint.  The N-sets of all vertices are packed into k = ceil(|Phi+| / 64)
machine words each (`CoxeterGroup.n_set_words`).  The adjacency is the
complement of the boolean product N N^T of the V x |Phi+| N-set matrix, and
`_pairwise_disjoint_rows` builds it from one table lookup per vertex and 8
roots, not one AND per vertex pair.  It is one packed V x ceil(V/64)
little-endian uint64 matrix, `E0Graph.rows` (bit j of row i set iff i and j
are joined, zero padding past column V), and every reader uses it as it is.
The walk stops, and the group is refused, once it finds more involutions
than `vertex_limit` allows: a matrix within `ADJACENCY_BUDGET`.  So B8,
E7xA1 and D9 build, and E8, A11 and A15 are refused.  A ball of an
infinite group (`infinite.Ball.graph`) is the same `E0Graph` on the ball's
involutions, with its N-sets packed by the same `pack_words` and its matrix
built by the same `_pairwise_disjoint_rows`.
"""

from __future__ import annotations

import json
import mmap
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

# the working-set size of one block of the numpy kernels: the build's
# subset-OR tables plus its gathered table rows, its unpacked N-set bits,
# the unpacked bit rows and the gathers of the row unions
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
    """Non-identity involutions in a fixed order, indexed by element key.

    `enumerate_involutions` orders a finite group's by length, ties kept in
    walk order; a ball keeps its (length, word) order.  Finite indices are
    internal: the exports renumber the vertices (see `E0Graph.to_json`).
    """

    def __init__(self, group, elements):
        self.group = group
        self.elements = elements
        self.index = {e.key: i for i, e in enumerate(elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, x):
        try:
            return self.index[x.key]
        except KeyError:
            raise ValueError(f"{x!r} is not a vertex of this involution set")


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


class E0Graph:
    """The graph itself: the involution vertices and the adjacency matrix
    `rows`; `radius` is the radius of a ball's graph, None for a finite group's."""

    def __init__(self, group, vertices, rows, radius=None):
        self.group = group
        self.vertices = vertices
        self.rows = rows
        self.radius = radius
        self._export = None  # (words, labels, rank), see _export_order

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

    def dense(self):
        """The adjacency unpacked to a V x V bool array (V^2 bytes): for
        ball-sized graphs, whose pair scans are bool matrix products."""
        return _bools(self.rows, len(self))

    def degrees(self):
        step = max(1, CHUNK_BYTES // max(self.rows.strides[0], 1))  # bounds the popcount temporary
        return [d for s in range(0, len(self), step)
                for d in np.bitwise_count(self.rows[s : s + step]).sum(axis=1).tolist()]

    def edge_count(self):
        return sum(self.degrees()) // 2

    def _edge_arrays(self):
        """The edges as (i, j) index arrays, i < j, in row-major order, one
        row block at a time.  A block is unpacked from the word holding its
        first diagonal bit on: the words left of it are all lower triangle."""
        V = len(self.rows)
        step = max(1, CHUNK_BYTES // max(V, 1))
        for start in range(0, V, step):
            w = 64 * (start >> 6)  # the first column unpacked
            bits = _bools(self.rows[start : start + step, w >> 6 :], V - w)
            i, j = np.divmod(np.flatnonzero(bits), V - w)
            upper = j + w > i + start
            yield i[upper] + start, j[upper] + w

    def neighborhood(self, x):
        """The set of vertices adjacent to x."""
        i = self.vertices.index_of(x)
        return {self.vertices.elements[j] for j in _set_bits(self.rows[i]).tolist()}

    def _export_order(self):
        """(words, labels, rank): the lexmin words in export order, their
        `format_word` labels, and the export id of each vertex index.  Export
        ids number the vertices by (length, lexmin word); the words and
        labels are computed here only, once per graph."""
        if self._export is None:
            words = [e.word for e in self.vertices]
            # a lexmin word is reduced, so its length is the element's
            order = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
            rank = np.argsort(order)  # the inverse permutation
            words = [words[i] for i in order]
            self._export = words, np.fromiter(map(format_word, words), dtype=object, count=len(words)), rank
        return self._export

    def _edge_text(self, head, pre, mid, post, sep, tail):
        """head, the edges in export ids and tail, as one str: edge (a, b),
        a < b, reads pre + a + mid + b + post, and sep goes between two.
        The pieces (`_edge_blocks`) are copied into one buffer of the text's
        exact size in bytes (vertex v's id is written deg(v) times) and
        decoded once: str.join, or a str grown by +=, left heap holes that
        raised the dense benchmark's peak RSS by up to 12 MB.  The buffer is
        an anonymous mapping, outside the malloc heap: a freed heap buffer
        of that size moved glibc's mmap threshold, and the next export's
        peak then hung on the heap's layout (86 or 95-99 MB on the dense
        benchmark, by checkout path length alone)."""
        *_, rank = self._export_order()
        deg = self.degrees()
        E = sum(deg) // 2
        digits = np.array([len(str(i)) for i in range(len(rank))])[rank]  # of v's export id
        size = (len(head.encode()) + E * len((pre + mid + post).encode())
                + (E - 1) * len(sep.encode()) + int(np.dot(deg, digits)) + len(tail.encode()))
        with mmap.mmap(-1, size) as buf, memoryview(buf) as out:
            pos = 0
            for piece in chain([head], self._edge_blocks(pre, mid, post, sep), [tail]):
                data = piece.encode()
                out[pos : pos + len(data)] = data  # raises if the text outgrows the buffer
                pos += len(data)
            return str(out[:pos], "utf-8")

    def _edge_blocks(self, pre, mid, post, sep):
        """The edges in row-major order, `EXPORT_BLOCK` of them a string; each
        string but the first starts with sep.  The order is one sort of the
        codes a * V + b (the smaller of an edge's two codes).  Each block is
        cut where a changes, and a row's run of edges is one str.join of the
        b ids: no edge is formatted on its own."""
        *_, rank = self._export_order()
        V = len(rank)
        codes = np.concatenate([np.minimum(rank[i] * V + rank[j], rank[j] * V + rank[i])
                                for i, j in self._edge_arrays()])
        codes.sort()
        ids = np.array([str(i) for i in range(V)], dtype=object)
        for start in range(0, len(codes), EXPORT_BLOCK):
            a, b = np.divmod(codes[start : start + EXPORT_BLOCK], V)
            cuts = [0, *(np.flatnonzero(np.diff(a)) + 1).tolist(), len(a)]
            names, runs = ids[b].tolist(), []
            for s, e, row in zip(cuts, cuts[1:], a[cuts[:-1]].tolist()):
                run = f"{pre}{row}{mid}"
                runs.append(run + (post + sep + run).join(names[s:e]) + post)
            yield (sep if start else "") + sep.join(runs)

    def to_json(self, **kwargs):
        """`json.dumps(doc, **kwargs)` of the graph in export ids, where doc is
        {"group", "vertices": [{"id", "word", "length"}, ...], "edges": [[i, j], ...]},
        with "radius" after "group" for a ball's graph.

        The edge list is never built whole, and json never encodes an edge.
        doc is encoded once with two edges of markers in place of the edge
        list; the text between the markers is what json writes inside an
        edge and between two edges; `_edge_blocks` joins each row's edges with it.
        """
        words, labels, _ = self._export_order()
        doc = {"group": self.group.label}
        if self.radius is not None:
            doc["radius"] = self.radius
        doc["vertices"] = [
            {"id": i, "word": label, "length": len(w)}
            for i, (w, label) in enumerate(zip(words, labels))
        ]
        if not self.rows.any():
            return json.dumps({**doc, "edges": []}, **kwargs)
        doc["edges"] = [[_MARK, _MARK], [_MARK, _MARK]]
        head, mid, sep, _, tail = json.dumps(doc, **kwargs).split(json.dumps(_MARK))
        return self._edge_text(head, "", mid, "", sep, tail)

    def to_dot(self):
        _, labels, _ = self._export_order()
        lines = [f'graph "{self.group.label}" {{']
        lines.extend(f'  v{i} [label="{label}"];' for i, label in enumerate(labels))
        if not self.rows.any():
            return "\n".join([*lines, "}"])
        return self._edge_text("\n".join(lines) + "\n", "  v", " -- v", ";", "\n", "\n}")


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
    """The adjacency matrix: bit j of row i set iff i != j and N-sets i and j
    are disjoint.

    `words` is the (k, V) word-major N-set array of `pack_words`.  The matrix
    is the complement of the boolean product N N^T of the V x |Phi+| N-set
    matrix, built by the Four Russians method (Arlazarov, Dinic, Kronrod and
    Faradzev, 1970).  A root in fewer than two N-sets can only meet a vertex
    with itself, so it is dropped and the diagonal is set by hand.  The
    other roots are compacted eight to a byte of each N-set (`idx`), and
    each is also packed as the V-bit row of the vertices that hold it
    (`cols`).  For a group of 8 roots, `_subset_ors` tables the OR of the
    rows of every subset of them, and a row i of the product is the OR over
    the groups of the table row picked by byte g of N-set i.  So a vertex
    costs one gathered row per 8 roots, not one AND per vertex pair.  The
    unpacked N-set bits, the tables and each gathered block stay within
    `CHUNK_BYTES`.
    """
    k, V = words.shape
    W = -(-V // 64)
    twice = np.bitwise_or.reduce(  # the roots an N-set shares with an earlier one
        words[:, 1:] & np.bitwise_or.accumulate(words, axis=1)[:, :-1], axis=1)
    shared = np.flatnonzero(_bools(twice, 64 * k))
    G = -(-len(shared) // 8)
    idx = np.zeros((G, V), dtype=np.uint8)
    cols = np.zeros((8 * G, 8 * W), dtype=np.uint8)
    # vertices unpacked at a time: 64 k bools each, a quarter of CHUNK_BYTES
    # in all, and a multiple of 8, so that each block's columns start a byte
    step = 8 * max(1, CHUNK_BYTES // (4 * 8 * 64 * max(k, 1)))
    for start in range(0, V, step):
        block = np.ascontiguousarray(words[:, start : start + step].T)
        bits = _bools(block, 64 * k)[:, shared]
        idx[:, start : start + len(bits)] = np.packbits(bits, axis=1, bitorder="little").T
        packed = np.packbits(bits, axis=0, bitorder="little").T
        cols[: len(shared), start >> 3 : (start >> 3) + packed.shape[1]] = packed
    cols = cols.view("<u8").reshape(G, 8, W)
    # The tables of gc groups, Wc words a row, and rb vertices' gathered rows,
    # each within a quarter of CHUNK_BYTES.  At most 16 groups a table block
    # keeps the gathered rows wide; every finite group's roots (|Phi+| <= 127)
    # fit one block, so its matrix is written in one pass.
    units = max(1, CHUNK_BYTES // (4 * 256 * 8))  # (group, word) cells of table
    gc = max(1, min(G, 16, units))
    Wc = units // gc
    rb = max(1, CHUNK_BYTES // (4 * 8 * gc * Wc))
    rows = np.zeros((V, W), dtype="<u8")
    for b in range(8):  # every vertex meets itself: bit i of row i is in byte i >> 3
        np.fill_diagonal(rows.view(np.uint8)[b::8], 1 << b)
    for g in range(0, G, gc):
        offsets = 256 * np.arange(len(cols[g : g + gc]))[:, None]
        for c in range(0, W, Wc):
            table = _subset_ors(cols[g : g + gc, :, c : c + Wc])
            for r in range(0, V, rb):
                picked = np.take(table, idx[g : g + gc, r : r + rb] + offsets, axis=0)
                rows[r : r + rb, c : c + Wc] |= np.bitwise_or.reduce(picked, axis=0)
    valid = np.zeros(8 * W, dtype=np.uint8)  # the bits of columns 0..V-1
    valid[: -(-V // 8)] = np.packbits(np.ones(V, dtype=bool), bitorder="little")
    rows ^= valid.view("<u8")  # the complement, zero past column V
    return rows


def _subset_ors(cols):
    """(n, 8, w) packed rows -> the (256 n, w) table whose row 256 i + m is
    the OR of the rows cols[i, b] over the set bits b of m, built in 8
    doubling steps for all n groups at once."""
    table = np.zeros((len(cols), 256, cols.shape[2]), dtype=cols.dtype)
    for b in range(8):
        np.bitwise_or(table[:, : 1 << b], cols[:, b, None], out=table[:, 1 << b : 2 << b])
    return table.reshape(-1, cols.shape[2])


def _set_bits(row):
    """The indices of the set bits of a packed row, ascending."""
    return np.flatnonzero(np.unpackbits(row.view(np.uint8), bitorder="little"))


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
    (`_layer`), listed by lowest vertex index.  The hat diameter is the
    largest eccentricity, found from exact eccentricity bounds (Takes and
    Kosters, CIKM 2011), which rest on ecc(v) <= ecc(u) + 1 for adjacent u
    and v: each vertex gathered grows its own ball one search layer per
    pass (`_layer`, as the components do), highest valency first, a vertex
    next to a finished one finishes without a gather, and the pass stops
    once the bounds meet (`_component_diameter`).  In the groups the
    generators finish at radius 2 and every other hat vertex touches one,
    so a few gathers settle the diameter.  No V x ceil(V/64) matrix is
    allocated besides the adjacency: past radius 2 the pass holds two
    packed rows, the ball and its outer layer, per unfinished gathered
    vertex, and `_layer` gathers `CHUNK_BYTES` of rows at a time.  Vertex
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


def _union(rows, idx):
    """The OR of the packed rows `rows[idx]`, gathered `CHUNK_BYTES` at a time."""
    out = np.zeros_like(rows[0])
    step = max(1, CHUNK_BYTES // rows.strides[0])
    for start in range(0, len(idx), step):
        out |= np.bitwise_or.reduce(rows[idx[start : start + step]], axis=0)
    return out


def _layer(rows, reach, frontier):
    """One search layer: the packed ball `reach` grown by the rows of the
    vertices in its `frontier`, and the new frontier."""
    grown = reach | _union(rows, _set_bits(frontier))
    return grown, grown & ~reach


def _bools(rows, V):
    """A packed row, or a block of packed rows, unpacked to V bools each."""
    bits = np.unpackbits(rows.view(np.uint8), axis=-1, count=V, bitorder="little")
    return bits.view(bool)


def _component_diameter(g, target):
    """The diameter of the component whose packed row is `target`: its
    largest eccentricity (see `components_and_diameter`).

    Pass r starts with the vertices still growing, whose balls of radius
    r - 1 fall short of the component (ecc >= r), and with `covered`, the
    union of the rows of the vertices finished so far (ecc <= r - 1), whose
    neighbours have ecc <= r.  So a growing vertex in `covered` finishes at
    radius r with no gather.  The others are gathered in descending degree:
    each grows its own ball by one search layer (`_layer`), and each whose
    ball is now the component adds its row to `covered`.  Once some gathered
    ball falls short (ecc >= r + 1) and every unfinished vertex is in
    `covered` (ecc <= r + 1), the diameter is r + 1.  A finished vertex's
    own bit in `covered` is never read.
    """
    rows = g.rows
    V = len(rows)
    in_comp = _bools(target, V)
    size = int(in_comp.sum())
    lens = np.array(g.degrees()) + 1  # closed neighbourhood sizes
    growing = in_comp & (lens < size)  # radius 1 is not yet the component
    covered = _union(rows, np.flatnonzero(in_comp & ~growing))
    active = np.flatnonzero(growing)
    active = active[np.argsort(-lens[active], kind="stable")]
    balls = {}  # (ball, outer layer) of each unfinished gathered vertex
    radius = int(size > 1)
    while active.size:
        radius += 1
        done = _bools(covered, V)[active]
        finished, gathered = active[done], active[~done]
        covered |= _union(rows, finished)
        for v in finished.tolist():
            balls.pop(v, None)
        full = np.zeros(gathered.size, dtype=bool)
        witness = False  # some gathered ball falls short: the diameter exceeds radius
        for k, v in enumerate(gathered.tolist()):
            seed = balls.pop(v, None) or (_with_bit(rows[v], v), rows[v])  # radius 1
            ball, frontier = _layer(rows, *seed)
            if (ball == target).all():
                full[k] = True
                covered |= rows[v]
            else:
                balls[v] = ball, frontier
                if witness:  # the bounds can only meet once `covered`
                    continue  # grows or the first witness appears
                witness = True
            # full[k + 1:] is still False, so ~full marks every unfinished vertex
            if witness and _bools(covered, V)[gathered[~full]].all():
                return radius + 1
        active = gathered[~full]
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
