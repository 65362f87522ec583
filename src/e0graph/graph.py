"""The excess-zero graph on the non-identity involutions of a finite group.

Vertices are the involutions, produced by the involution walk of
`CoxeterGroup.involution_perms` (the rest of the group is never visited) and
numbered by length, ties kept in walk order.  Valencies, components, the
diameter and the pendants do not depend on that numbering, so no word is
computed to build or measure the graph.  Only the JSON/DOT exports show
vertex ids: they number the vertices by (length, lexmin word), a
permutation each graph computes once.  Its words come from one pass over
the vertices by length, which peels a vertex's least left descents only
until it reaches a shorter involution, whose word the pass already holds
(`_lexmin_words`).  The exports read the row blocks of the graph renumbered
by it, whose upper triangle, row by row, is the edge list in export ids;
only the upper triangle up to each chunk's length cut is unpacked, and
each vertex's run of edges to later ids is one str.join
(`E0Graph._edge_blocks`).  x and y are joined exactly when l(xy) =
l(x) + l(y), which happens iff N(x) and N(y) are disjoint.  The graph
holds the N-sets, packed into k = ceil(|Phi+| / 64) machine words each
(`CoxeterGroup.n_set_words`), not its adjacency: the complement of the
boolean product N N^T of the V x |Phi+| N-set matrix, which `_row_blocks`
yields a block of packed rows at a time.  `build_graph` popcounts the
blocks into the valencies and keeps none, and the exports read them the
same way.  A block of rows of length >= l reads only the columns of length
<= |Phi+| - l, since |N(x)| + |N(y)| > |Phi+| forces two N-sets to meet.
The V x ceil(V/64) matrix `E0Graph.rows` is built only for the readers of
whole rows, within `ADJACENCY_BUDGET`.

Components, the diameter and distances need no adjacency.  Let D(x) be the
simple roots in N(x), the descent set of x.  A generator s has N(s) =
{a_s}, so s ~ x iff s is not in D(x); w0 has N(w0) = Phi+, so it is
isolated, and it is the only involution with D = S.  Two other vertices x
and y are joined by x - s - t - y for any s outside D(x) and t outside
D(y); s is a common neighbour when it lies outside D(x) | D(y), and when
D(x) | D(y) = S there is none, as every vertex z has a descent t, with a_t
in N(z) and in N(x) or N(y).  `graph_distance` and
`components_and_diameter` read this off the N-set words.

The walk stops, and the group is refused, once its involutions would take
more than `ADJACENCY_BUDGET` (`vertex_bytes`): E8, A11 and D9 build, A15 is
refused.  A ball of an infinite group (`infinite.Ball.graph`) is the same
`E0Graph` on the ball's involutions, with its N-sets packed by the same
`pack_words` and its rows from the same `_row_blocks`, uncut.
"""

from __future__ import annotations

import json
import mmap
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .coxeter import (
    CoxeterGroup,
    Element,
    SpecError,
    ascending,
    descending,
    format_word,
    pack_words,
    parse_word,
)

# the working-set size of one block of the numpy kernels: the build's
# subset-OR tables plus its gathered table rows, its unpacked N-set bits,
# and the exports' unpacked bit rows
CHUNK_BYTES = 1 << 20
# the most bytes the graph layer spends on one structure: the involution
# walk, the packed adjacency matrix `E0Graph.rows`, a ball's layer
ADJACENCY_BUDGET = 1 << 30
# stands for the edge list in the JSON export's frame; no label or word holds it
_MARK = "\0edges"


def vertex_bytes(group):
    """The bytes the walk and the graph hold per involution at their peak:
    its permutation (a bytes object of 2 |Phi+| bytes) and its copy in the
    length sort, its N-set words, its bits in the row blocks of
    `_row_blocks`, and 256 bytes for its `Element` (48 bytes), its slots in
    the walk's seen set and lists and in the vertex index, and its valency,
    with room to spare."""
    P = group.pos_count
    return sys.getsizeof(group.identity_perm) + 2 * P + 8 * -(-P // 64) + _block_rows() // 8 + 256


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
    its involutions would take more than `ADJACENCY_BUDGET` at
    `vertex_bytes(group)` each.
    """
    if not isinstance(group, CoxeterGroup):
        raise SpecError(f"{group.label} is infinite; use the ball explorer")
    per = vertex_bytes(group)
    try:
        perms = group.involution_perms(ADJACENCY_BUDGET // per)
    except SpecError as exc:  # the walk's own refusal, named by its budget
        raise SpecError(f"{exc}, at {per} bytes each more than "
                        f"ADJACENCY_BUDGET ({ADJACENCY_BUDGET} bytes)") from None
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
    """The graph itself: the involution vertices and their N-set words, the
    (k, V) word-major array of `pack_words`; `radius` is the radius of a
    ball's graph, None for a finite group's."""

    def __init__(self, group, vertices, words, radius=None):
        self.group = group
        self.vertices = vertices
        self.words = words
        self.radius = radius
        self._degrees = None
        self._export = None  # (words, labels, order), see _export_order

    @cached_property
    def rows(self):
        """The packed V x ceil(V/64) little-endian uint64 adjacency matrix
        (bit j of row i set iff i and j are joined, zero padding past column
        V), built on first use from `_row_blocks`.  Raises SpecError when it
        would take more than `ADJACENCY_BUDGET`."""
        V = len(self)
        need = V * -(-V // 64) * 8
        if need > ADJACENCY_BUDGET:
            raise SpecError(f"the adjacency matrix of {self.group.label} needs {need} bytes, "
                            f"more than ADJACENCY_BUDGET ({ADJACENCY_BUDGET} bytes)")
        return _pairwise_disjoint_rows(self.words, self._reach(self.words))

    @property
    def adj(self):
        """The rows as V-bit ints, for the benchmark's distance oracle
        (`perfbench/workloads.py::_distance_ok`) only: it builds the whole
        matrix `rows`, and nothing in the library reads it.  Goes once that
        oracle calls `has_edge`."""
        return [int.from_bytes(row.tobytes(), "little") for row in self.rows]

    def __len__(self):
        return len(self.vertices)

    def degree(self, i):
        return self.degrees()[i]

    def has_edge(self, i, j):
        """Whether vertices i and j (indices) are adjacent: whether their
        N-sets are disjoint."""
        words = self.words
        return i != j and not any(words.item(w, i) & words.item(w, j) for w in range(len(words)))

    @cached_property
    def simple_roots(self):
        """The simple roots, bits 0 .. rank - 1 of an N-set, as one int per
        N-set word: the descent set of x is D(x) = N(x) & S."""
        rank = self.group.rank
        return tuple((1 << min(64, max(0, rank - 64 * w))) - 1 for w in range(len(self.words)))

    @cached_property
    def w0_index(self):
        """The vertex index of w0, the longest element of a finite group."""
        return self.vertices.index_of(self.group.longest_element())

    def dense(self):
        """The adjacency unpacked to a V x V bool array (V^2 bytes): for
        ball-sized graphs, whose pair scans are bool matrix products."""
        return _bools(self.rows, len(self))

    def degrees(self):
        """The valencies, popcounted from the row blocks as they come
        (computed once)."""
        if self._degrees is None:
            deg = np.zeros(len(self), dtype=np.int64)
            for start, block in _row_blocks(self.words, self._reach(self.words)):
                deg[start : start + len(block)] = np.bitwise_count(block).sum(axis=1)
            self._degrees = deg.tolist()
        return self._degrees

    def edge_count(self):
        return sum(self.degrees()) // 2

    def _reach(self, words):
        """For a finite group's graph on the N-set columns `words`, the
        columns past which each row has no bit (`_row_blocks`): two N-sets
        with |N(x)| + |N(y)| > |Phi+| meet.  None for a ball's graph, whose
        N-sets are over the shared roots only."""
        if self.radius is not None:
            return None
        lengths = _lengths(words)
        P = self.group.pos_count
        last = np.full(P + 1, -1)  # last[l]: the last vertex of length <= l
        np.maximum.at(last, lengths, np.arange(len(lengths)))
        return np.maximum.accumulate(last)[P - lengths] + 1

    def neighborhood(self, x):
        """The set of vertices adjacent to x."""
        i = self.vertices.index_of(x)
        return {self.vertices.elements[j] for j in np.flatnonzero(_bools(self.rows[i], len(self)))}

    def _export_order(self):
        """(words, labels, order): the lexmin words in export order, their
        `format_word` labels, and the vertex index of each export id.  Export
        ids number the vertices by (length, lexmin word); the words and
        labels are computed here only, once per graph: a finite group's by
        `_lexmin_words`, a ball's are its elements' stored words."""
        if self._export is None:
            if self.radius is None:
                words = _lexmin_words(self.vertices, _lengths(self.words))
            else:
                words = [e.word for e in self.vertices]
            # a lexmin word is reduced, so its length is the element's
            order = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
            words = [words[i] for i in order]
            labels = np.fromiter(map(format_word, words), dtype=object, count=len(words))
            self._export = words, labels, np.array(order)
        return self._export

    def _edge_text(self, head, pre, mid, post, sep, tail):
        """head, the edges in export ids and tail, as one str: edge (a, b),
        a < b, reads pre + a + mid + b + post, and sep goes between two.
        The pieces (`_edge_blocks`) are copied into one buffer of the text's
        exact size in bytes (export id a is written deg(a) times) and
        decoded once: str.join, or a str grown by +=, left heap holes that
        raised the dense benchmark's peak RSS by up to 12 MB.  The buffer is
        an anonymous mapping, outside the malloc heap: a freed heap buffer
        of that size moved glibc's mmap threshold, and the next export's
        peak then hung on the heap's layout."""
        *_, order = self._export_order()
        deg = np.array(self.degrees())[order]  # of export id a
        E = self.edge_count()
        digits = np.array([len(str(a)) for a in range(len(order))])
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
        """The edges (a, b), a < b, in export ids and in row-major order, one
        string per `CHUNK_BYTES` chunk of unpacked rows of the graph on the
        N-sets renumbered by export id; each string but the first starts
        with sep, and a chunk with no edge gives none.  A chunk's rows are
        unpacked from the word holding its first diagonal bit (the words left
        of it are all lower triangle) up to the largest `_reach` of its rows,
        and the lower triangle left in those bits is cleared before they are
        read.  A row's run of edges is one str.join of the b ids: no edge is
        formatted on its own."""
        *_, order = self._export_order()
        V = len(order)
        words = self.words[:, order]
        reach = self._reach(words)
        if reach is None:  # a ball's rows may reach any column
            reach = np.full(V, V)
        ids = np.array([str(b) for b in range(V)], dtype=object)
        step = max(1, CHUNK_BYTES // max(V, 1))
        lead = ""
        for first, block in _row_blocks(words, reach):
            for start in range(first, first + len(block), step):
                stop = min(start + step, first + len(block))
                top = int(reach[start:stop].max())  # no row has a bit from column top on
                if top <= start + 1:  # so none past its diagonal
                    continue
                w = 64 * (start >> 6)  # the first column unpacked
                bits = _bools(block[start - first : stop - first, w >> 6 : -(-top // 64)], top - w)
                n = min(stop, top) - w  # the columns that hold lower-triangle bits
                bits[:, :n] &= np.arange(n) > np.arange(start - w, stop - w)[:, None]
                a, b = np.divmod(np.flatnonzero(bits), top - w)
                if not len(a):
                    continue
                a += start
                b += w
                cuts = [0, *(np.flatnonzero(np.diff(a)) + 1).tolist(), len(a)]
                names, runs = ids[b].tolist(), []
                for s, e, row in zip(cuts, cuts[1:], a[cuts[:-1]].tolist()):
                    run = f"{pre}{row}{mid}"
                    runs.append(run + (post + sep + run).join(names[s:e]) + post)
                yield lead + sep.join(runs)
                lead = sep

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
        if not self.edge_count():
            return json.dumps({**doc, "edges": []}, **kwargs)
        doc["edges"] = [[_MARK, _MARK], [_MARK, _MARK]]
        head, mid, sep, _, tail = json.dumps(doc, **kwargs).split(json.dumps(_MARK))
        return self._edge_text(head, "", mid, "", sep, tail)

    def to_dot(self):
        _, labels, _ = self._export_order()
        lines = [f'graph "{self.group.label}" {{']
        lines.extend(f'  v{i} [label="{label}"];' for i, label in enumerate(labels))
        if not self.edge_count():
            return "\n".join([*lines, "}"])
        return self._edge_text("\n".join(lines) + "\n", "  v", " -- v", ";", "\n", "\n}")


def build_graph(group):
    """Build the excess-zero graph of a finite group and its valencies
    (cached on the group).

    Raises SpecError, during the involution walk and so before the vertices
    are sorted or any row computed, when the group's involutions would take
    more than `ADJACENCY_BUDGET` (`enumerate_involutions`).
    """
    cached = getattr(group, "_e0graph", None)
    if cached is not None:
        return cached
    vertices = enumerate_involutions(group)
    g = E0Graph(group, vertices, group.n_set_words([e.perm for e in vertices]))
    g.degrees()
    group._e0graph = g
    return g


def _lengths(words):
    """The length of each vertex, l(x) = |N(x)|: the popcount of its column
    of the (k, V) N-set words."""
    return np.bitwise_count(words).sum(axis=0, dtype=np.int64)


def _lexmin_words(vertices, lengths):
    """The lexmin word of each vertex of a finite group's `InvolutionSet`,
    in its order, from one pass over the vertices by `lengths`.

    The lexmin word of w != 1 is s followed by that of sw, with s the least
    left descent of w (the shortlex normal form; Bjorner and Brenti, GTM 231,
    ch. 3).  A vertex is peeled only until the current element is the
    identity or a shorter involution, found in `vertices.index`, whose word
    the pass already holds: the vertex's word is the peeled letters followed
    by it.  The index is hashed only for elements whose square fixes the
    first root, as an involution's does, which most peeled elements' do not.
    """
    group = vertices.group
    identity, table, descents = group.identity_perm, group.gen_table, group._left_descents
    index, elements = vertices.index, vertices.elements
    words = [None] * len(elements)
    for i in np.argsort(lengths, kind="stable").tolist():
        a, peeled = elements[i].perm, []
        while True:
            s = min(descents(a)) + 1
            peeled.append(s)
            a = a.translate(table[s])  # left-multiply by r_s
            if a[a[0]] != 0:  # a^2 moves the first root, so a is no involution
                continue
            if a == identity:
                words[i] = tuple(peeled)
                break
            j = index.get(a)
            if j is not None:
                words[i] = (*peeled, *words[j])
                break
    return words


def _block_rows():
    """The rows of one block of `_row_blocks`: a block rebuilds the tables,
    which cost about as much as 256 gathered rows, an eighth of its own."""
    return 8 * max(1, CHUNK_BYTES // (4 * 8 * 128))


def _row_blocks(words, reach=None):
    """The adjacency matrix as (start, block) pairs, in order: block is the
    packed (rows, ceil(V/64)) little-endian uint64 array of rows start,
    start + 1, ..., bit j of row i set iff i != j and N-sets i and j are
    disjoint, zero past column V.

    `words` is the (k, V) word-major N-set array of `pack_words`.  The matrix
    is the complement of the boolean product N N^T of the V x |Phi+| N-set
    matrix, built by the Four Russians method (Arlazarov, Dinic, Kronrod and
    Faradzev, 1970).  A root in fewer than two N-sets can only meet a vertex
    with itself, so it is dropped and the diagonal is cleared by hand.  The
    other roots are compacted eight to a byte of each N-set (`idx`), and
    each is also packed as the V-bit row of the vertices that hold it
    (`cols`).  For a group of 8 roots, `_subset_ors` tables the OR of the
    rows of every subset of them, and a row i of the product is the OR over
    the groups of the table row picked by byte g of N-set i.  So a vertex
    costs one gathered row per 8 roots, not one AND per vertex pair.  The
    unpacked N-set bits, the tables and each gather stay within
    `CHUNK_BYTES`; a block holds `_block_rows()` rows, in one buffer that
    the next block overwrites.

    `reach[i]`, when given, is a column past which row i has no bit: a
    block reads only the columns before the largest reach of its rows, and
    leaves the words past them zero.
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
    # fit one block.
    units = max(1, CHUNK_BYTES // (4 * 256 * 8))  # (group, word) cells of table
    gc = max(1, min(G, 16, units))
    Wc = units // gc
    rb = max(1, CHUNK_BYTES // (4 * 8 * gc * Wc))
    valid = np.zeros(8 * W, dtype=np.uint8)  # the bits of columns 0..V-1
    valid[: -(-V // 8)] = np.packbits(np.ones(V, dtype=bool), bitorder="little")
    valid = valid.view("<u8")
    R = _block_rows()
    buf = np.empty((min(R, V), W), dtype="<u8")
    for first in range(0, V, R):
        last = min(first + R, V)
        Wr = W if reach is None else -(-int(reach[first:last].max()) // 64)
        block = buf[: last - first]
        block[:] = 0
        for g in range(0, G, gc):
            offsets = 256 * np.arange(len(cols[g : g + gc]))[:, None]
            for c in range(0, Wr, Wc):
                ce = min(c + Wc, Wr)
                table = _subset_ors(cols[g : g + gc, :, c:ce])
                for r in range(first, last, rb):
                    picked = np.take(table, idx[g : g + gc, r : min(r + rb, last)] + offsets, axis=0)
                    block[r - first : r - first + rb, c:ce] |= np.bitwise_or.reduce(picked, axis=0)
        block[:, :Wr] ^= valid[:Wr]  # the complement, zero past column V
        i = np.arange(first, last)
        block[i - first, i >> 6] &= ~(np.uint64(1) << (i & 63).astype(np.uint64))
        yield first, block


def _pairwise_disjoint_rows(words, reach=None):
    """The whole adjacency matrix of `_row_blocks(words, reach)`, its blocks
    written into one V x ceil(V/64) array."""
    V = words.shape[1]
    rows = np.empty((V, -(-V // 64)), dtype="<u8")
    for first, block in _row_blocks(words, reach):
        rows[first : first + len(block)] = block
    return rows


def _subset_ors(cols):
    """(n, 8, w) packed rows -> the (256 n, w) table whose row 256 i + m is
    the OR of the rows cols[i, b] over the set bits b of m, built in 8
    doubling steps for all n groups at once."""
    table = np.zeros((len(cols), 256, cols.shape[2]), dtype=cols.dtype)
    for b in range(8):
        np.bitwise_or(table[:, : 1 << b], cols[:, b, None], out=table[:, 1 << b : 2 << b])
    return table.reshape(-1, cols.shape[2])


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
    """Connected components plus the diameter of the component without w0,
    read off the N-sets and descent sets of a finite group's graph (see the
    module docstring).

    The components are [the hat, {w0}], once the data shows w0 isolated,
    the only vertex with D = S, and each generator s with N(s) = {a_s}.
    The hat diameter is 1 if the valencies show a clique.  Otherwise it is
    3 if a non-adjacent pair has D(x) | D(y) = S: at rank >= 3 the longest
    elements of W_{S - r} and W_{S - s} (their N-sets share the roots of
    W_{S - {r, s}}), checked on their words, and at rank 2 some pair with
    descent sets {1} and {2}.  Otherwise it is 2.  Vertex indices are the
    internal ones of `InvolutionSet`, not export ids.  Raises for rank-1
    groups, whose "hat" component is empty and has no diameter.
    """
    group = g.group
    if group.rank < 2:
        raise ValueError("rank-1 group: the component away from w0 is empty, "
                         "its diameter is undefined")
    words, S = g.words, np.array(g.simple_roots, dtype=np.uint64)
    w0 = g.w0_index
    covered = np.count_nonzero(((words & S[:, None]) == S[:, None]).all(axis=0))  # D = S
    gens = [g.vertices.index_of(group.generator(i)) for i in group.generators]
    alone = pack_words(np.eye(group.rank, 64 * len(words), dtype=bool))  # N(s) = {a_s}
    degrees = g.degrees()
    if degrees[w0] or covered != 1 or not (words[:, gens] == alone).all():
        raise ValueError(f"expected one component away from w0, found {covered - 1} "
                         "other vertices with every simple root in their N-set")
    elements = g.vertices.elements
    components = [frozenset(elements[:w0] + elements[w0 + 1 :]), frozenset([elements[w0]])]
    if all(d == len(g) - 2 for i, d in enumerate(degrees) if i != w0):
        return components, 1
    if group.rank >= 3:
        R = set(group.generators)
        r, s, *_ = sorted(R)
        if graph_distance(g, group.parabolic_longest(R - {r}), group.parabolic_longest(R - {s})) != 3:
            raise ValueError("the maximal-parabolic longest elements are not at distance 3")
        return components, 3
    desc = words[0] & S[0]
    ones, twos = words[:, desc == 1], words[:, desc == 2]  # D = {1} and D = {2}
    return components, 3 if (ones[:, :, None] & twos[:, None, :]).any(axis=0).any() else 2


def _bools(rows, V):
    """A packed row, or a block of packed rows, unpacked to V bools each."""
    bits = np.unpackbits(rows.view(np.uint8), axis=-1, count=V, bitorder="little")
    return bits.view(bool)


def graph_distance(g, x, y):
    """Shortest-path distance between two vertices of a finite group's
    graph; None when disconnected.

    Read off the N-sets and descent sets (see the module docstring): 0 when
    x = y, None when one is w0, 1 when their N-sets are disjoint, 2 when
    some generator lies outside D(x) | D(y), and 3 otherwise.
    """
    i, j = g.vertices.index_of(x), g.vertices.index_of(y)
    if i == j:
        return 0
    if g.w0_index in (i, j):
        return None
    if g.has_edge(i, j):
        return 1
    words = g.words
    covered = all((words.item(w, i) | words.item(w, j)) & s == s for w, s in enumerate(g.simple_roots))
    return 3 if covered else 2


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
