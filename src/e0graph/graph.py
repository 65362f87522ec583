"""The excess-zero graph on the non-identity involutions of a finite group.

Vertices are the involutions, produced by the involution walk of
`CoxeterGroup.involution_perms` (the rest of the group is never visited) and
ordered by (length, lexmin word); vertex ids in the exports follow that
order.  x and y are joined exactly when l(xy) = l(x) + l(y), which happens
iff N(x) and N(y) are disjoint.  The N-sets of all vertices are packed into
k = ceil(|Phi+| / 64) machine words each (`CoxeterGroup.n_set_words`), so
building the graph is a pairwise AND over k vectors of words, whatever the
width.  The adjacency is one V-bit row per vertex.  The walk stops, and the
group is refused, once it finds more involutions than `vertex_limit`
allows: V^2/8 adjacency bytes within `ADJACENCY_BUDGET`.  So B8, E7xA1 and
D9 build, and E8, A11 and A15 are refused.
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
    _iter_bits,
    ascending,
    descending,
    format_word,
    parse_word,
)

# the working-set size of one block of the numpy kernels: the build's AND
# temporary, the unpacked bit rows and the reach pass's gather
CHUNK_BYTES = 1 << 20
# the most bytes build_graph spends on adjacency rows (one bit per vertex pair);
# E8 would need about 5 GB
ADJACENCY_BUDGET = 1 << 30


def vertex_limit():
    """The most involutions the graph layer takes on."""
    return isqrt(8 * ADJACENCY_BUDGET)


class InvolutionSet:
    """The non-identity involutions of a finite group, in a stable order."""

    def __init__(self, group, elements):
        self.group = group
        self.elements = elements  # sorted by (length, lexmin word)
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

    Raises SpecError, without finishing the walk, once it finds more than
    `vertex_limit()` involutions.
    """
    if not isinstance(group, CoxeterGroup):
        raise SpecError(f"{group.label} is infinite; use the ball explorer")
    perms = group.involution_perms(vertex_limit())
    cached = getattr(group, "_involutions", None)
    if cached is not None:
        return cached
    elements = [Element(group, p) for p in perms]
    elements.sort(key=Element.sort_key)
    invset = InvolutionSet(group, elements)
    group._involutions = invset
    return invset


def is_adjacent(x, y):
    """Edge test: N(x) and N(y) disjoint (x, y involutions, x != y)."""
    g = x.group
    return g._n_bits(x.perm) & g._n_bits(y.perm) == 0


class E0Graph:
    """The graph itself: involution vertices plus bitset adjacency rows."""

    def __init__(self, group, vertices, adj):
        self.group = group
        self.vertices = vertices
        self.adj = adj  # adjacency bitset per vertex (over vertex indices)

    def __len__(self):
        return len(self.vertices)

    def degree(self, i):
        return self.adj[i].bit_count()

    def has_edge(self, i, j):
        """Whether vertices i and j (indices) are adjacent."""
        return bool((self.adj[i] >> j) & 1)

    def degrees(self):
        return [row.bit_count() for row in self.adj]

    def edge_count(self):
        return sum(self.degrees()) // 2

    def _edge_runs(self):
        """The edges (i, j), i < j, in row-major order, one row block at a time."""
        V = len(self.adj)
        ids = list(range(V))  # one int object per vertex, shared by its edges
        for start, bits in _bit_blocks(_packed_rows(self.adj, V), V):
            i, j = np.divmod(np.flatnonzero(bits) + start * V, V)
            upper = j > i
            yield zip(map(ids.__getitem__, i[upper].tolist()),
                      map(ids.__getitem__, j[upper].tolist()))

    def edges(self):
        """Every edge (i, j), i < j, in row-major order."""
        return list(chain.from_iterable(self._edge_runs()))

    def neighborhood(self, x):
        """The set of vertices adjacent to x."""
        i = self.vertices.index_of(x)
        return {self.vertices.elements[j] for j in _iter_bits(self.adj[i])}

    def to_json_dict(self):
        verts = [
            {"id": i, "word": format_word(e.word), "length": e.length}
            for i, e in enumerate(self.vertices)
        ]
        return {
            "group": self.group.label,
            "vertices": verts,
            "edges": self.edges(),  # json writes each (i, j) tuple as [i, j]
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_json_dict(), **kwargs)

    def to_dot(self):
        lines = [f'graph "{self.group.label}" {{']
        for i, e in enumerate(self.vertices):
            lines.append(f'  v{i} [label="{format_word(e.word)}"];')
        for run in self._edge_runs():  # one string per row block, not per edge
            block = "\n".join(f"  v{i} -- v{j};" for i, j in run)
            if block:
                lines.append(block)
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
    """Adjacency rows: bit j of row i set iff N-sets i and j are disjoint.

    `words` is the (k, V) word-major N-set array of `n_set_words`.  Identity
    is excluded from the vertex set, so every N-set is non-empty and the
    diagonal comes out empty by itself.  Rows are built in blocks whose
    uint64 AND temporaries stay within `CHUNK_BYTES` each.
    """
    V = words.shape[1]
    if V == 0:
        return []
    rows = []
    block = max(1, CHUNK_BYTES // (8 * V))
    for start in range(0, V, block):
        meet = words[0, start : start + block, None] & words[0, None, :]
        for word in words[1:]:
            meet |= word[start : start + block, None] & word[None, :]
        packed = np.packbits(meet == 0, axis=1, bitorder="little")
        for row in packed:
            rows.append(int.from_bytes(row.tobytes(), "little"))
    return rows


def _packed_rows(rows, V):
    """V-bit int rows as a writable len(rows) x ceil(V/64) little-endian uint64 matrix."""
    nbytes = 8 * -(-V // 64)
    buf = bytearray(len(rows) * nbytes)
    for i, r in enumerate(rows):
        buf[i * nbytes : (i + 1) * nbytes] = r.to_bytes(nbytes, "little")
    return np.frombuffer(buf, dtype="<u8").reshape(len(rows), nbytes // 8)


def _bit_blocks(packed, V):
    """(start, bool block) pairs: rows start.. of `packed` unpacked to V
    columns each, in blocks of about `CHUNK_BYTES`."""
    step = max(1, CHUNK_BYTES // max(V, 1))
    for start in range(0, len(packed), step):
        block = packed[start : start + step].view(np.uint8)
        yield start, np.unpackbits(block, axis=1, count=V, bitorder="little").view(bool)


@dataclass
class ValencyDistribution:
    """Sorted (valency, count) pairs; rendered in the dotted i^k notation."""

    pairs: tuple

    @classmethod
    def from_graph(cls, g):
        counts = {}
        for d in g.degrees():
            counts[d] = counts.get(d, 0) + 1
        return cls(tuple(sorted(counts.items())))

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

    Components come from a frontier search over the adjacency rows, listed
    by lowest vertex index.  For the diameter, every hat vertex's ball grows
    one radius per pass as a packed bit row: the next ball is the OR of the
    balls over the closed neighbourhood, gathered with `take` and ORed with
    `bitwise_or.reduceat`, `CHUNK_BYTES` of rows at a time so the gather
    stays in cache.  Radius 1 is the closed neighbourhood itself.  A row
    that has become the whole hat leaves the passes, and the last pass that
    finishes a row gives the diameter.  Memory: two V x ceil(V/64) uint64
    matrices (the balls, and the next balls of the rows still growing), the
    closed neighbour lists (2E + V indices) and one gather buffer, the
    larger of `CHUNK_BYTES` and the largest closed neighbourhood's rows.
    Raises for rank-1 groups, whose "hat" component is empty and has no
    diameter.
    """
    group = g.group
    if group.rank < 2:
        raise ValueError("rank-1 group: the component away from w0 is empty, "
                         "its diameter is undefined")
    comp_masks = _component_masks(g.adj)
    components = [
        frozenset(g.vertices.elements[i] for i in _iter_bits(m)) for m in comp_masks
    ]
    w0 = group.longest_element()
    w0_idx = g.vertices.index_of(w0)
    hat_masks = [m for m in comp_masks if not (m >> w0_idx) & 1]
    if len(hat_masks) != 1:
        raise ValueError(f"expected one component away from w0, found {len(hat_masks)}")
    return components, _component_diameter(g.adj, hat_masks[0])


def _component_masks(adj):
    """The components as vertex bitsets, by lowest vertex index."""
    masks = []
    seen = 0
    for v in range(len(adj)):
        if (seen >> v) & 1:
            continue
        reach = frontier = 1 << v
        while frontier:
            frontier = _row_union(adj, frontier) & ~reach
            reach |= frontier
        masks.append(reach)
        seen |= reach
    return masks


def _row_union(adj, bits):
    """The union of the adjacency rows of the vertices in `bits`."""
    grown = 0
    for u in _iter_bits(bits):
        grown |= adj[u]
    return grown


def _component_diameter(adj, mask):
    """The diameter of the component `mask` (see `components_and_diameter`)."""
    V = len(adj)
    size = mask.bit_count()
    target = _packed_rows([mask], V)[0]
    in_comp = np.unpackbits(target.view(np.uint8), count=V, bitorder="little").view(bool)
    # the balls of radius 1: every row gains its own vertex
    reach = _packed_rows(adj, V)
    v = np.arange(V)
    reach.view(np.uint8)[v, v // 8] |= (1 << v % 8).astype(np.uint8)
    W = reach.shape[1]
    indices = np.concatenate([np.flatnonzero(bits) % V for _, bits in _bit_blocks(reach, V)])
    lens = np.array([row.bit_count() + 1 for row in adj])
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

    A bidirectional search: balls grow around both ends, one layer at a
    time on the side whose frontier is smaller, until the layer just added
    on one side meets the other side's ball.
    """
    i, j = g.vertices.index_of(x), g.vertices.index_of(y)
    if i == j:
        return 0
    reach = [1 << i, 1 << j]
    frontier = list(reach)
    d = 0
    while frontier[0] and frontier[1]:
        d += 1
        s = 0 if frontier[0].bit_count() <= frontier[1].bit_count() else 1
        grown = _row_union(g.adj, frontier[s])
        if grown & reach[1 - s]:
            return d
        frontier[s] = grown & ~reach[s]
        reach[s] |= frontier[s]
    return None


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
    for x in [ident] + list(invs):
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
    return {e for e, row in zip(g.vertices, g.adj) if row.bit_count() == 1}


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
