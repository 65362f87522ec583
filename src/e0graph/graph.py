"""The excess-zero graph on the non-identity involutions of a finite group.

Vertices are the involutions, produced by the involution walk of
`CoxeterGroup.involution_perms` one length at a time (the rest of the group
is never visited, and a central w0 mirrors the longer half) and numbered by
length.  They are held as arrays, a `FiniteInvolutionSet`: one uint8 row of
root permutation and one column of N-set words a vertex, and an index
keyed by N-set.  An `Element` is built only at the output boundary: the
pendants, the neighbourhoods, and whoever iterates over the set.
Valencies, components, the diameter and the pendants do not depend on the
numbering, so no word is computed to build or measure the graph.  Only
the JSON/DOT exports show vertex ids: they number the vertices by (length,
lexmin word), a permutation each graph computes once.  Its words come from
one pass over the vertices by length, which peels a vertex's least left
descents only until it reaches a shorter involution, whose word the pass
already holds (`_lexmin_words`).  The exports read the row blocks of the
graph renumbered by it, whose upper triangle, row by row, is the edge list
in export ids; only the upper triangle up to each chunk's length cut is
unpacked, and each vertex's run of edges to later ids is one str.join
(`E0Graph._edge_blocks`).

x and y are joined exactly when l(xy) = l(x) + l(y), which happens iff N(x)
and N(y) are disjoint: an `E0Graph` is read off its vertex set alone.  It
holds their N-sets, packed into k = ceil(|Phi+| / 64) machine words each
(`CoxeterGroup.n_set_words`), not its adjacency: the complement of the
boolean product N N^T of the V x |Phi+| N-set matrix, which one kernel
(`_Kernel`, the Four Russians method) reads two ways.  `build_graph` sums
the valencies one chunk of columns at a time (`_degrees`): each chunk's
tables are built once for all rows, and no block of rows is held.  The
exports and `E0Graph.rows` read the matrix a block of packed rows at a time
(`_row_blocks`).  A row of length l reads only the columns of length
<= K - l, K one past the highest root in any N-set (`_reach`; |Phi+| for a
finite group, as N(w0) = Phi+), since |N(x)| + |N(y)| > K forces two N-sets
to meet.  One vertex's row is read off the words alone (`E0Graph.row`); the
whole V x ceil(V/64) matrix `E0Graph.rows` is built, within
`ADJACENCY_BUDGET`, only for a ball's pair scans and the benchmark's `adj`.

Components, the diameter and distances need no adjacency.  Let D(x) be the
simple roots in N(x), the descent set of x.  A generator s has N(s) =
{a_s}, so s ~ x iff s is not in D(x); w0 has N(w0) = Phi+, so it is
isolated, and it is the only involution with D = S.  Two other vertices x
and y are joined by x - s - t - y for any s outside D(x) and t outside
D(y); s is a common neighbour when it lies outside D(x) | D(y), and when
D(x) | D(y) = S there is none, as every vertex z has a descent t, with a_t
in N(z) and in N(x) or N(y).  `graph_distance` and
`components_and_diameter` read this off the N-set words.

A group is refused when its involutions would take more than
`ADJACENCY_BUDGET` at `vertex_bytes` each: before the walk, from the exact
count of a labelled group (`GroupSpec.involution_count`), and, for a group
given by its Coxeter matrix alone, as soon as the walk finds too many.  E8
and B10 build; A15 is refused at once.  A ball of an infinite group
(`infinite.Ball.graph`) is the same `E0Graph` on the ball's involutions, an
`InvolutionSet` of its members and their N-sets, packed by the same
`pack_words` over the roots that two of them share, and read by the same
kernel with the same cut.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .coxeter import (
    CoxeterGroup,
    Element,
    SpecError,
    ToleranceError,
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
# walk, a ball's layer, and the packed adjacency matrix `E0Graph.rows` that
# a ball's pair scans read
ADJACENCY_BUDGET = 1 << 30
# stands for the edge list in the JSON export's frame; no label or word holds it
_MARK = "\0edges"


def vertex_bytes(group):
    """The bytes the vertex set and the graph hold per involution at their
    peak: its row of the walk's permutation array (2 |Phi+| bytes) and its
    N-set words, then 256 bytes: its N-set key and slot in the index (about
    100), its valency as an int64 and as an int in a list (44), its length,
    reach and kernel bytes (about 40), with room to spare, which also covers
    the walk's transients (a layer's finds, before its keep rule)."""
    P = group.pos_count
    return 2 * P + 8 * -(-P // 64) + 256


class InvolutionSet:
    """A ball's non-identity involutions in (length, word) order, indexed by
    element key, with their stored words and their N-sets, `words`, as
    `pack_words` packs them.  A finite group's is a `FiniteInvolutionSet`.
    """

    def __init__(self, group, elements, words):
        self.group = group
        self.elements = elements
        self.words = words
        self._index(e.key for e in elements)

    def _index(self, keys):
        self.index = dict(zip(keys, range(len(self))))
        if len(self.index) < len(self):  # refused, not merged
            raise ToleranceError(f"involution keys collide: {len(self.index)} keys for {len(self)}")

    def __len__(self):
        return self.words.shape[1]

    def __iter__(self):
        return iter(self.elements)

    def element(self, i):
        return self.elements[i]

    def index_of(self, x):
        try:
            return self.index[x.key]
        except KeyError:
            raise ValueError(f"{x!r} is not a vertex of this involution set")

    def lexmin_words(self):
        return [e.word for e in self.elements]  # each member's stored word


class FiniteInvolutionSet(InvolutionSet):
    """A finite group's involutions as arrays: `perms`, the (V, 2 |Phi+|)
    uint8 root permutations, and `words`, their N-sets as `pack_words` packs
    them.  The index is keyed by N-set, the `Element.key` of a finite
    group, and an `Element` is built only when one is asked for (`element`,
    `elements`).

    `enumerate_involutions` orders them by length, as the walk makes them.
    Their indices are internal: the exports renumber the vertices (see
    `E0Graph.to_json`).
    """

    def __init__(self, group, perms):
        self.group = group
        self.perms = perms
        self.words = group.n_set_words(perms)
        keys = self.words[0].tolist()
        for w in range(1, len(self.words)):
            keys = [key | high << 64 * w for key, high in zip(keys, self.words[w].tolist())]
        self._index(keys)

    @cached_property
    def elements(self):
        """Every vertex as an `Element`, built on first use."""
        raw, n = self.perms.tobytes(), self.perms.shape[1]
        return [Element(self.group, raw[i : i + n]) for i in range(0, len(raw), n)]

    def element(self, i):
        return Element(self.group, self.perms[i].tobytes())

    def lexmin_words(self):
        return _lexmin_words(self, _lengths(self.words))


def enumerate_involutions(group):
    """All w != 1 with w^2 = 1, from the involution walk, by length (cached).

    Raises SpecError, before the walk or, for a group with no exact count
    of its involutions, without finishing it, once they would take more
    than `ADJACENCY_BUDGET` at `vertex_bytes(group)` each.
    """
    if not isinstance(group, CoxeterGroup):
        raise SpecError(f"{group.label} is infinite; use the ball explorer")
    per = vertex_bytes(group)
    limit = ADJACENCY_BUDGET // per
    try:
        if getattr(group, "_involutions", None) is None:
            group._involutions = FiniteInvolutionSet(group, group.involution_perms(limit))
        elif len(group._involutions) > limit:
            raise SpecError(f"{group.label} has more than {limit} involutions")
    except SpecError as exc:  # the walk's own refusal, named by its budget
        raise SpecError(f"{exc}, at {per} bytes each more than "
                        f"ADJACENCY_BUDGET ({ADJACENCY_BUDGET} bytes)") from None
    return group._involutions


class E0Graph:
    """The graph itself, fixed by its vertex set `vertices` (an
    `InvolutionSet`): its group, and the N-set `words` that it is read off;
    `radius`, the radius of a ball's graph, only labels its JSON export."""

    def __init__(self, vertices, radius=None):
        self.vertices = vertices
        self.group = vertices.group
        self.words = vertices.words
        self.radius = radius
        self._degrees = None

    @cached_property
    def rows(self):
        """The packed V x ceil(V/64) little-endian uint64 adjacency matrix
        (bit j of row i set iff i and j are joined, zero padding past column
        V), built on first use from `_row_blocks`, for a ball's pair scans
        and `adj`.  Raises SpecError when it would take more than
        `ADJACENCY_BUDGET`."""
        V = len(self)
        need = V * -(-V // 64) * 8
        if need > ADJACENCY_BUDGET:
            raise SpecError(f"the adjacency matrix of {self.group.label} needs {need} bytes, "
                            f"more than ADJACENCY_BUDGET ({ADJACENCY_BUDGET} bytes)")
        return _pairwise_disjoint_rows(self.words)

    @property
    def adj(self):
        """The rows as V-bit ints, for the benchmark's distance oracle
        (`perfbench/workloads.py::_distance_ok`) only, and so the only
        reader of a finite group's `rows`.  Goes once that oracle calls
        `has_edge`."""
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

    def row(self, i):
        """Vertex i's adjacency as V bools: the vertices whose N-sets meet
        none of i's, tested one N-set word at a time, so that nothing wider
        than V words is held."""
        out = np.ones(len(self), dtype=bool)
        for word in self.words:
            if mine := word[i]:
                out &= (word & mine) == 0
        out[i] = False
        return out

    def degrees(self):
        """The valencies, popcounted one chunk of columns at a time
        (`_degrees`; computed once)."""
        if self._degrees is None:
            self._degrees = _degrees(self.words).tolist()
        return self._degrees

    def edge_count(self):
        return sum(self.degrees()) // 2

    def neighborhood(self, x):
        """The set of vertices adjacent to x, from its `row`."""
        row = self.row(self.vertices.index_of(x))
        return {self.vertices.element(j) for j in np.flatnonzero(row)}

    @cached_property
    def _export_order(self):
        """(words, labels, order): the lexmin words in export order, their
        `format_word` labels, and the vertex index of each export id.  Export
        ids number the vertices by (length, lexmin word); the words and
        labels are computed here only, once per graph
        (`InvolutionSet.lexmin_words`)."""
        words = self.vertices.lexmin_words()
        # a lexmin word is reduced, so its length is the element's
        order = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
        words = [words[i] for i in order]
        labels = np.fromiter(map(format_word, words), dtype=object, count=len(words))
        return words, labels, np.array(order)

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
        *_, order = self._export_order
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
        *_, order = self._export_order
        V = len(order)
        words = self.words[:, order]
        reach = _reach(words)
        ids = np.array([str(b) for b in range(V)], dtype=object)
        step = max(1, CHUNK_BYTES // max(V, 1))
        lead = ""
        for first, block in _row_blocks(words):
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
        words, labels, _ = self._export_order
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
        _, labels, _ = self._export_order
        lines = [f'graph "{self.group.label}" {{']
        lines.extend(f'  v{i} [label="{label}"];' for i, label in enumerate(labels))
        if not self.edge_count():
            return "\n".join([*lines, "}"])
        return self._edge_text("\n".join(lines) + "\n", "  v", " -- v", ";", "\n", "\n}")


def build_graph(group):
    """Build the excess-zero graph of a finite group and its valencies
    (cached on the group).

    Raises SpecError, before any row is computed, when the group's
    involutions would take more than `ADJACENCY_BUDGET`
    (`enumerate_involutions`).
    """
    if getattr(group, "_e0graph", None) is None:
        g = E0Graph(enumerate_involutions(group))
        g.degrees()
        group._e0graph = g
    return group._e0graph


def _lengths(words):
    """The length of each vertex, l(x) = |N(x)|: the popcount of its column
    of the (k, V) N-set words."""
    return np.bitwise_count(words).sum(axis=0, dtype=np.int64)


def _reach(words):
    """The column past which each row of the graph on the N-sets `words` has
    no bit: with K one past the highest root any N-set holds (|Phi+| for a
    finite group, as N(w0) = Phi+), |N(x)| + |N(y)| > K forces them to meet."""
    lengths = _lengths(words)
    K = max((64 * w + int(h).bit_length()
             for w, h in enumerate(np.bitwise_or.reduce(words, axis=1).tolist()) if h), default=0)
    last = np.full(K + 1, -1)  # last[l]: the last vertex of length <= l
    np.maximum.at(last, lengths, np.arange(len(lengths)))
    return np.maximum.accumulate(last)[K - lengths] + 1


def _lexmin_words(vertices, lengths):
    """The lexmin word of each vertex of a `FiniteInvolutionSet`,
    in its order, from one pass over the vertices by `lengths`.

    The lexmin word of w != 1 is s followed by that of sw, with s the least
    left descent of w (the shortlex normal form; Bjorner and Brenti, GTM 231,
    ch. 3).  A vertex is peeled only until the current element is the
    identity or a shorter involution, found by its N-set in `vertices.index`,
    whose word the pass already holds: the vertex's word is the peeled
    letters followed by it.  The N-set is carried along the peel: w sends
    one positive root to -a_s, and s w sends it to a_s and every other one
    where w does, so N(s w) is N(w) less that root.
    """
    group = vertices.group
    P, table, descents = group.pos_count, group.gen_table, group._left_descents
    index, raw, n = vertices.index, vertices.perms.tobytes(), 2 * P
    keys = list(index)  # the N-sets in vertex order, as the index is built
    words = [None] * len(keys)
    for i in np.argsort(lengths, kind="stable").tolist():
        a, key, peeled = raw[i * n : (i + 1) * n], keys[i], []
        while True:
            s = min(descents(a)) + 1
            peeled.append(s)
            key ^= 1 << a.index(P + s - 1)  # the root a sends to -a_s
            a = a.translate(table[s])  # left-multiply by r_s
            if not key:
                words[i] = tuple(peeled)
                break
            j = index.get(key)
            if j is not None:
                words[i] = (*peeled, *words[j])
                break
    return words


def _block_rows():
    """The rows of one block of `_row_blocks`: a block rebuilds the tables,
    which cost about as much as 256 gathered rows, an eighth of its own."""
    return 8 * max(1, CHUNK_BYTES // (4 * 8 * 128))


class _Kernel:
    """The Four Russians method (Arlazarov, Dinic, Kronrod and Faradzev,
    1970) for the boolean product N N^T of the V x |Phi+| N-set matrix, whose
    complement is the adjacency matrix; `_row_blocks` reads it by rows and
    `_degrees` by columns.

    `words` is the (k, V) word-major N-set array of `pack_words`.  A root in
    fewer than two N-sets can only meet a vertex with itself, so it is
    dropped and the diagonal is cleared by hand.  The other roots are
    compacted eight to a byte of each N-set (`idx`), and each is also packed
    as the V-bit row of the vertices that hold it (`cols`).  For a group of
    8 roots, `_subset_ors` tables the OR of the rows of every subset of them
    (`tables`), and row i of the product is the OR over the groups of the
    table row picked by byte g of N-set i (`ors`).  So a vertex costs one
    gathered row per 8 roots, not one AND per vertex pair.  The unpacked
    N-set bits, a table of at most `gc` groups, and each gather stay within
    `CHUNK_BYTES`; at most 16 groups a table keeps the gathered rows wide,
    and every finite group's roots (|Phi+| <= 127) fit one table.
    """

    def __init__(self, words):
        k, V = words.shape
        self.V, self.W = V, -(-V // 64)
        twice = np.bitwise_or.reduce(  # the roots an N-set shares with an earlier one
            words[:, 1:] & np.bitwise_or.accumulate(words, axis=1)[:, :-1], axis=1)
        shared = np.flatnonzero(_bools(twice, 64 * k))
        self.G = G = -(-len(shared) // 8)
        self.idx = np.zeros((G, V), dtype=np.uint8)
        cols = np.zeros((8 * G, 8 * self.W), dtype=np.uint8)
        # vertices unpacked at a time: 64 k bools each, a quarter of
        # CHUNK_BYTES in all, and a multiple of 8, so that each block's
        # columns start a byte
        step = 8 * max(1, CHUNK_BYTES // (4 * 8 * 64 * max(k, 1)))
        for start in range(0, V, step):
            block = np.ascontiguousarray(words[:, start : start + step].T)
            bits = _bools(block, 64 * k)[:, shared]
            self.idx[:, start : start + len(bits)] = np.packbits(bits, axis=1, bitorder="little").T
            packed = np.packbits(bits, axis=0, bitorder="little").T
            cols[: len(shared), start >> 3 : (start >> 3) + packed.shape[1]] = packed
        self.cols = cols.view("<u8").reshape(G, 8, self.W)
        # (group, word) cells of the tables read at once, a quarter of
        # CHUNK_BYTES, and the groups of one table
        self.cells = max(1, CHUNK_BYTES // (4 * 256 * 8))
        self.gc = max(1, min(G, 16, self.cells))
        self.offsets = 256 * np.arange(self.gc)[:, None]  # of each group's table
        valid = np.zeros(8 * self.W, dtype=np.uint8)  # the bits of columns 0..V-1
        valid[: -(-V // 8)] = np.packbits(np.ones(V, dtype=bool), bitorder="little")
        self.valid = valid.view("<u8")

    def gather_rows(self, words):
        """The rows a gather of tables `words` words wide takes at once, its
        picked table rows within a quarter of CHUNK_BYTES."""
        return max(1, CHUNK_BYTES // (4 * 8 * self.gc * words))

    def tables(self, c, ce, groups):
        """(g, table) for the groups g .. g + gc - 1 of each g in `groups`:
        the subset ORs of their packed rows over words c .. ce - 1."""
        return [(g, _subset_ors(self.cols[g : g + self.gc, :, c:ce])) for g in groups]

    def ors(self, tables, rows, out):
        """out |= the product's rows `rows` (a slice or an index array) over
        the tables' words: the OR, over the groups, of the table row that
        each N-set's byte picks."""
        for g, table in tables:
            picks = self.idx[g : g + self.gc, rows] + self.offsets[: len(table) >> 8]
            picked = np.take(table, picks, axis=0)
            out |= np.bitwise_or.reduce(picked, axis=0)


def _row_blocks(words):
    """The adjacency matrix as (start, block) pairs, in order: block is the
    packed (rows, ceil(V/64)) little-endian uint64 array of rows start,
    start + 1, ..., bit j of row i set iff i != j and N-sets i and j are
    disjoint, zero past column V; `_Kernel` makes it from the N-set `words`.
    A block holds `_block_rows()` rows, in one buffer that the next block
    overwrites, and reads each table, of `gc` groups and `cells // gc`
    words, as it is built.

    Row i has no bit from column `_reach(words)[i]` on: a block reads only
    the columns before the largest reach of its rows, and leaves the words
    past them zero.
    """
    kernel, reach = _Kernel(words), _reach(words)
    V, W = kernel.V, kernel.W
    Wc = kernel.cells // kernel.gc
    rb = kernel.gather_rows(Wc)
    R = _block_rows()
    buf = np.empty((min(R, V), W), dtype="<u8")
    for first in range(0, V, R):
        last = min(first + R, V)
        Wr = -(-int(reach[first:last].max()) // 64)
        block = buf[: last - first]
        block[:] = 0
        for g in range(0, kernel.G, kernel.gc):
            for c in range(0, Wr, Wc):
                ce = min(c + Wc, Wr)
                tables = kernel.tables(c, ce, [g])
                for r in range(first, last, rb):
                    rows = slice(r, min(r + rb, last))
                    kernel.ors(tables, rows, block[r - first : r - first + rb, c:ce])
        block[:, :Wr] ^= kernel.valid[:Wr]  # the complement, zero past column V
        i = np.arange(first, last)
        block[i - first, i >> 6] &= ~(np.uint64(1) << (i & 63).astype(np.uint64))
        yield first, block


def _degrees(words):
    """The valencies of the graph on the N-set `words`, as an int64 array,
    summed one chunk of columns at a time: a chunk's tables, every group's
    within `cells`, are built once for all rows, and the rows' product bits
    are gathered and popcounted a few hundred rows at a time, so no block of
    whole rows is held.  A row's valency is the columns below V, less the
    product's set bits, less its own column when its N-set holds no shared
    root (the product's diagonal is then 0).  A chunk reads only the rows
    whose `_reach` passes its first column; the others have no bit there,
    and the diagonal is counted only where it is read."""
    kernel, reach = _Kernel(words), _reach(words)
    V = kernel.V
    Wd = max(1, kernel.cells // max(kernel.G, 1))
    rb = kernel.gather_rows(Wd)
    columns = np.bitwise_count(kernel.valid).astype(np.int64)
    deg = np.zeros(V, dtype=np.int64)
    for c in range(0, kernel.W, Wd):
        ce = min(c + Wd, kernel.W)
        rows = np.flatnonzero(reach > 64 * c)
        deg[rows] += columns[c:ce].sum()
        tables = kernel.tables(c, ce, range(0, kernel.G, kernel.gc))
        for r in range(0, len(rows), rb):
            some = rows[r : r + rb]
            block = np.zeros((len(some), ce - c), dtype="<u8")
            kernel.ors(tables, some, block)
            deg[some] -= np.bitwise_count(block).sum(axis=1, dtype=np.int64)
    diagonal = ~kernel.idx.any(axis=0) & (reach > 64 * Wd * (np.arange(V) // (64 * Wd)))
    return deg - diagonal


def _pairwise_disjoint_rows(words):
    """The whole adjacency matrix of `_row_blocks(words)`, its blocks
    written into one V x ceil(V/64) array."""
    V = words.shape[1]
    rows = np.empty((V, -(-V // 64)), dtype="<u8")
    for first, block in _row_blocks(words):
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
    internal ones of `FiniteInvolutionSet`, not export ids, and a component
    is the frozenset of its vertices' indices.  Raises for rank-1 groups,
    whose "hat" component is empty and has no diameter.
    """
    group = g.group
    if group.rank < 2:
        raise ValueError("rank-1 group: the component away from w0 is empty, "
                         "its diameter is undefined")
    words, S = g.words, np.array(g.simple_roots, dtype=np.uint64)
    w0 = g.w0_index
    covered = np.count_nonzero(((words & S[:, None]) == S[:, None]).all(axis=0))  # D = S
    gens = [g.vertices.index[1 << (i - 1)] for i in group.generators]  # keyed by N(s)
    alone = pack_words(np.eye(group.rank, 64 * len(words), dtype=bool))  # N(s) = {a_s}
    degrees = g.degrees()
    if degrees[w0] or covered != 1 or not (words[:, gens] == alone).all():
        raise ValueError(f"expected one component away from w0, found {covered - 1} "
                         "other vertices with every simple root in their N-set")
    components = [frozenset(chain(range(w0), range(w0 + 1, len(g)))), frozenset([w0])]
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
    """Vertices of valency exactly 1, the only ones built as elements."""
    return {g.vertices.element(i) for i, d in enumerate(g.degrees()) if d == 1}


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

    def from_words(words):
        return {w0 * group.element_from_word(w) for w in words}

    def w0_times_generators():  # one element each
        return {Element(group, group._mul(w0.perm, group.gen_perm[i])) for i in group.generators}

    if family in _CENTRAL_W0 or (family == "D" and p % 2 == 0):
        return w0_times_generators()
    if family == "I2":
        if p % 2 == 0:
            return w0_times_generators()
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
            return w0_times_generators()  # E7/E8 have central w0
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
