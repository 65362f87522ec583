"""Bounded-ball exploration of infinite Coxeter groups.

Elements are stored as (matrix of the reflection representation, lexmin
word).  The lexmin word is the lexicographically least reduced word:
`reduce_word` peels it off the matrix of w^-1 one smallest left descent at a
time.  A column is negative by `coxeter.negative`, the sign of its
coefficient sum, which rounding noise cannot flip.  Right multiplication by
a generator s is the rank-one update M - 2 M[:, s-1] <a_s, .>, O(n^2) per
element, on single matrices and on stacks alike, so a matrix stepped along
the same word is bit-identical on every path, and so is its key (its
entries rounded to 1e-6).

Two producers work one length layer at a time on (F, n, n) float64 stacks.
Neither compares keys: each is a reverse search (Avis-Fukuda 1996), in
which every element has one canonical parent, fixed by its least descent,
and a candidate is kept only when it is stepped from that parent.  So no
two kept candidates are one element, and every test is a root sign, with
the sign rule's margin of 1.

* `walk_involutions` produces the vertex set: the involutions of length
  <= R and nothing else.  It is the ascending twisted-involution walk of
  the finite groups (Richardson-Springer 1990; Hultman 2005) cut at length
  R: from an involution x and an ascent s, the next involution is xs when
  x . a_s = a_s, and sxs otherwise, and it is kept when s is its least
  descent.  Each layer's lexmin words are peeled off its own matrices
  (w^-1 = w), and each involution's matrix is then rebuilt along its word,
  so its key is that of `element_from_word`.  The (3,3,7) radius-20 ball
  holds 70,690 elements, of which the walk visits only the 347 involutions.
* `enumerate_ball` produces every element of length <= R, for element
  counts.  It carries the matrices of its members' inverses, steps each
  member w to s w for each left ascent s, and keeps s w when s is its
  least left descent; s followed by w's lexmin word is then the lexmin
  word of s w, with no peel.  A layer stays two arrays: for each member
  the position of its parent and its first letter.  A `Ball` builds words
  by walking parent positions, and matrices and `MatrixElement`s only on
  first use; its involutions and graph come from the walk.

Two involutions are adjacent when l(xy) = l(x) + l(y), that is when N(x)
and N(y) are disjoint (Bjorner-Brenti, GTM 231, ch. 4), so a graph needs
only the roots that occur in its vertices' N-sets: `root_columns` keys
those root vectors directly, once per graph, and no root system is closed.
`involution_graph` is a finite group's `E0Graph` on the walk's
involutions, over the roots that two N-sets share; no evidence report
enumerates a ball.  The diameter-3 report reads two vertices' rows off
their N-set words (`E0Graph.row`).  Whether two vertices have a common
neighbour is whether their adjacency rows meet: the kernel's own question,
asked of the packed rows read as words (`_no_common_neighbour`), so no
V x V bool matrix or matrix product is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .coxeter import (
    INFINITE_BOND,
    ROOT_KEY_DECIMALS,
    CoxeterGroup,
    CoxeterMatrix,
    GroupSpec,
    GeometricGroup,
    SpecError,
    ToleranceError,
    float_keys,
    format_word,
    negative,
    pack_words,
    parse_group_spec,
)
from . import graph as gr
from .graph import E0Graph, InvolutionSet

MATRIX_KEY_DECIMALS = 6
MATRIX_COLLISION_TOL = 1e-5
ROOT_COLLISION_TOL = 1e-5
EXTRA = 2  # the radius past its ball that a report searches for common neighbours


def _mat_keys(mats):
    """Keys of a stack of matrices; the one key of a group element."""
    return float_keys(mats, MATRIX_KEY_DECIMALS)


class MatrixElement:
    """A group member of an infinite group: matrix plus its lexmin word."""

    __slots__ = ("group", "mat", "word", "key")

    def __init__(self, group, mat, word, key=None):
        self.group = group
        self.mat = mat
        self.word = word
        self.key = _mat_keys(mat[None])[0] if key is None else key

    @property
    def length(self):
        return len(self.word)

    def __mul__(self, other):
        if not isinstance(other, MatrixElement) or other.group is not self.group:
            return NotImplemented
        return self.group.element_from_word(self.word + other.word)

    def inverse(self):
        return self.group.element_from_word(self.word[::-1])

    def is_identity(self):
        return not self.word

    def is_involution(self):
        """w != 1 and w = w^-1, compared by key."""
        return bool(self.word) and self.inverse().key == self.key

    def sort_key(self):
        return (len(self.word), self.word)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixElement)
            and other.group is self.group
            and other.key == self.key
        )

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return format_word(self.word)


class InfiniteCoxeterGroup(GeometricGroup):
    """A Coxeter group explored through balls of bounded word length."""

    def __init__(self, matrix, spec=None):
        super().__init__(matrix, spec)
        self.identity_mat = np.eye(self.rank)
        self.identity_mat.flags.writeable = False
        self._form2 = 2.0 * np.array(self.form)  # row s-1: 2 <a_s, .>

    @classmethod
    def from_spec(cls, spec):
        if isinstance(spec, str):
            spec = parse_group_spec(spec)
        if spec.is_finite:
            raise SpecError(f"{spec.label} is finite; build it as a CoxeterGroup")
        return cls(spec.coxeter_matrix(), spec)

    @property
    def is_universal(self):
        m = self.matrix
        return all(
            m.order(i, j) == INFINITE_BOND
            for i in self.generators
            for j in self.generators
            if i != j
        )

    def longest_element(self):
        raise SpecError(f"{self.label} is infinite and has no longest element")

    # -- words -----------------------------------------------------------------

    def _mul_gen(self, mat, s):
        # entry for entry the step of `_mul_gens` on a stack
        return mat - mat[:, s - 1, None] * self._form2[s - 1]

    def _mul_gens(self, mats, s):
        """Each matrix of a stack times its own generator s[i] + 1 (0-based
        letters), entry for entry as `_mul_gen`."""
        col = mats[np.arange(len(s)), :, s]
        return mats - col[:, :, None] * self._form2[s][:, None, :]

    def _word_mat(self, word):
        mat = self.identity_mat
        for s in word:
            mat = self._mul_gen(mat, s)
        mat.flags.writeable = False
        return mat

    def reduce_word(self, word):
        """The lexicographically least reduced word of the word's element.

        The left descents of w are the negative columns of the matrix of
        w^-1.  Each step peels the smallest one, s, and steps that matrix
        by s, until no column is negative.  A peel longer than the word, or
        one that stops away from the identity, raises ToleranceError.
        """
        self._check_letters(word)
        mat, out = self._word_mat(tuple(word)[::-1]), []
        while (descents := np.flatnonzero(negative(mat, axis=0))).size:
            if len(out) == len(word):
                raise ToleranceError("peeling descents outgrew the word")
            out.append(int(descents[0]) + 1)
            mat = self._mul_gen(mat, out[-1])
        if np.abs(mat - self.identity_mat).max() > MATRIX_COLLISION_TOL:
            raise ToleranceError("peeling descents stopped short of the identity")
        return tuple(out)

    # -- elements ---------------------------------------------------------------

    @property
    def identity(self):
        return MatrixElement(self, self.identity_mat, ())

    def element_from_word(self, word):
        """Element with the given letters; the stored word is its lexmin word,
        and its matrix is stepped along that word, bit for bit as `Ball.mats`
        holds it."""
        word = self.reduce_word(word)
        return MatrixElement(self, self._word_mat(word), word)

    def generator(self, i):
        return MatrixElement(self, self._word_mat((i,)), (i,))

    def n_set_vectors(self, words):
        """N(w) of each reduced word w, as root coefficient vectors: the rows
        of one array, word after word.

        For w = s_1 ... s_k these are a_{s_k}, s_k . a_{s_{k-1}}, ...,
        s_k ... s_2 . a_{s_1}.  Each letter position steps the matrices of
        all the words that long at once, entry for entry as `_mul_gen` does.
        """
        lengths = np.fromiter(map(len, words), np.intp, len(words))
        starts = np.cumsum(lengths) - lengths
        letters = np.fromiter(
            chain.from_iterable(w[::-1] for w in words), np.intp, lengths.sum()
        ) - 1
        out = np.empty((len(letters), self.rank))
        mats = np.repeat(self.identity_mat[None], len(words), axis=0)
        for t in range(lengths.max(initial=0)):
            a = np.flatnonzero(lengths > t)
            rows = starts[a] + t
            s = letters[rows]
            col = mats[a, :, s]
            if negative(col).any():
                raise ToleranceError("reduced word produced a negative N-set root")
            out[rows] = col
            mats[a] -= col[:, :, None] * self._form2[s][:, None, :]
        return out

    def parabolic_matrix(self, J):
        """The Coxeter matrix of W_J, on the generators J in increasing order."""
        J = sorted(set(J))
        return CoxeterMatrix([[self.matrix.order(i, j) for j in J] for i in J])

    def parabolic_longest(self, J):
        """Longest element of W_J, which must be finite.

        It is the longest element of the finite `CoxeterGroup` on J's
        sub-matrix: its lexmin word, relabelled by J, and the matrix stepped
        along that word.  An infinite W_J raises SpecError there, before any
        root is closed.
        """
        J = sorted(set(J))
        sub = CoxeterGroup(self.parabolic_matrix(J))
        word = tuple(J[s - 1] for s in sub.longest_element().word)
        return MatrixElement(self, self._word_mat(word), word)


def root_columns(vectors):
    """The column of each root vector (the rows of a float array): two roots
    share a column when their keys, `float_keys` at ROOT_KEY_DECIMALS, agree.

    Rounding must neither merge two roots nor split one: a vector more than
    ROOT_COLLISION_TOL from the first vector on its key, or two columns whose
    vectors lie within it of each other, raises ToleranceError.
    """
    # the keys have one length, so the trailing zero bytes numpy ignores merge none
    keys = np.array(float_keys(vectors, ROOT_KEY_DECIMALS))
    _, first, cols = np.unique(keys, return_index=True, return_inverse=True)
    roots = vectors[first]  # row c: the vector of column c
    if len(cols) and np.abs(vectors - roots[cols]).max() > ROOT_COLLISION_TOL:
        raise ToleranceError("root key collision between distinct roots")
    _check_split(roots)
    return cols


def _split_direction(rank):
    """The split test's positive direction: 1 + frac(k * golden ratio), k = 1..rank."""
    return 1.0 + np.modf(np.arange(1, rank + 1) * (1 + 5 ** 0.5) / 2)[0]


def _check_split(vectors):
    """Raise when two rows lie within ROOT_COLLISION_TOL (max norm).

    Such rows project onto the direction d of `_split_direction` at most
    tol * |d|_1 apart.  So after sorting the projections only pairs whose
    gap is within that bound are compared, and offset k + 1 is tried only
    while some pair at offset k still is.
    """
    direction = _split_direction(vectors.shape[1])
    proj = vectors @ direction
    order = np.argsort(proj, kind="stable")
    p, v = proj[order], vectors[order]
    window = ROOT_COLLISION_TOL * direction.sum()
    for k in range(1, len(p)):
        near = np.flatnonzero(p[k:] - p[:-k] <= window)
        if not len(near):
            break
        if (np.abs(v[near + k] - v[near]).max(axis=1) <= ROOT_COLLISION_TOL).any():
            raise ToleranceError("root key split: two columns hold one root")


class Ball:
    """All elements of length <= radius, and the graph on its involutions.

    The members are held as two arrays in (length, word) order: member p is
    generator `_gen[p]` times member `_parent[p]`, and its lexmin word is
    that letter followed by the parent's (the identity, at position 0, has
    neither).  Words are read by walking parent positions.  `mats` and
    `elements` are built on first use, each matrix bit for bit the one
    `element_from_word` steps along its word; so are the involutions (one
    walk at the ball's radius) and `graph` on them.
    """

    def __init__(self, group, radius, layers):
        """`layers`: per length, the arrays (parent positions, generators)."""
        self.group = group
        self.radius = radius
        self._parent, self._gen = map(np.concatenate, zip(*layers))
        self._starts = np.cumsum([0] + [len(layer[0]) for layer in layers]).tolist()

    def _letters(self):
        """Per length l, the (members, l) array of its members' words, read
        by walking parent positions back to the identity."""
        for length, (lo, hi) in enumerate(zip(self._starts, self._starts[1:])):
            p, letters = np.arange(lo, hi), []
            for _ in range(length):
                letters.append(self._gen[p])
                p = self._parent[p]
            yield np.reshape(letters, (length, hi - lo)).T

    @cached_property
    def mats(self):
        """Every member's matrix, as stepped along its word from the identity.

        A lexmin word less its last letter is lexmin, so it is a member:
        each matrix is that prefix's stepped once, by the last letter.  A
        member's last letter is its parent's, and its prefix is the member
        with its first letter and, as parent, the prefix of its parent;
        the (letter, parent) pairs of a layer are sorted, so that member is
        found by one `np.searchsorted` a layer.
        """
        mats = np.repeat(self.group.identity_mat[None], len(self), axis=0)
        prefix = np.zeros(len(self), dtype=np.intp)
        last = self._gen.copy()
        pairs = self._gen * len(self) + self._parent  # sorted within a layer
        starts = self._starts  # [a, lo) is the layer before [lo, hi)
        for a, lo, hi in zip(starts, starts[1:], starts[2:]):
            if a:  # length 2 and on; at length 1 the prefix is the identity
                up = self._parent[lo:hi]
                last[lo:hi] = last[up]
                prefix[lo:hi] = a + np.searchsorted(
                    pairs[a:lo], self._gen[lo:hi] * len(self) + prefix[up])
            mats[lo:hi] = self.group._mul_gens(mats[prefix[lo:hi]], last[lo:hi] - 1)
        mats.flags.writeable = False
        return mats

    @cached_property
    def elements(self):
        """Every member in (length, word) order, built on first use."""
        words = [tuple(w) for letters in self._letters() for w in letters.tolist()]
        keys = _mat_keys(self.mats)
        return list(map(MatrixElement, [self.group] * len(words), self.mats, words, keys))

    @cached_property
    def _involutions(self):
        return walk_involutions(self.group, self.radius)

    @cached_property
    def graph(self):
        """The excess-zero graph on the ball's involutions, built on first
        use."""
        return _graph_on(self.group, self._involutions, self.radius)

    def __len__(self):
        return self._starts[-1]

    def __contains__(self, elem):
        return elem.group is self.group and elem.length <= self.radius

    def involutions(self):
        """Members w != 1 with w = w^-1, in (length, word) order, from
        `walk_involutions`: the vertices of `graph`, which is not built
        for them."""
        return self._involutions


def enumerate_ball(group, radius):
    """All elements of length <= radius, one length at a time, by reverse
    search over the left weak order.

    A layer holds the matrices of its members' inverses, so the left
    ascents s of a member w are the columns of w^-1 with a positive sum,
    and (s w)^-1 = w^-1 s is one generator step.  s w is kept only when s
    is its least left descent, the least negative column of (s w)^-1: so
    every element is kept once, from one parent, and no candidate is
    compared with another.  Its lexmin word is s followed by w's, so the
    candidates, taken in (s, w) order, come out in (length, word) order.

    Each layer's columns are signed once: the signs that pick the kept
    candidates are the next layer's descents.  The candidates' letters are
    sorted, so each generator's run of the gathered matrices is stepped in
    place, entry for entry as `_mul_gens` steps it.

    A layer whose arrays would take more than `graph.ADJACENCY_BUDGET` bytes
    at its peak raises SpecError before its candidates are allocated.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    n = group.rank
    inv = group.identity_mat[None]  # the matrices of the layer's inverses
    neg = negative(inv, axis=1)  # the signs of their columns
    zero = np.zeros(1, dtype=np.intp)
    layers = [(zero, zero)]
    start = 0  # the position of the layer's first member
    for length in range(1, radius + 1):
        g, f = np.nonzero(~neg.T)  # l(s w) > l(w), in (s, w) order
        if not len(f):
            break
        # an upper bound on the peak: the layer's matrices, three n x n
        # floats and 2n + 2 words per candidate, and the two index arrays of
        # each member so far.  Per candidate, at most two n x n floats are
        # alive at once (its gathered matrix, and its run's product or its
        # kept copy), and f, g, the sums and the signs take under n + 3 words
        need = 8 * ((len(inv) + 3 * len(f)) * n * n + (2 * n + 2) * len(f)
                    + 2 * (start + len(inv)))
        if need > gr.ADJACENCY_BUDGET:
            raise SpecError(
                f"the ball's length-{length} layer needs {need} bytes, more "
                f"than ADJACENCY_BUDGET ({gr.ADJACENCY_BUDGET} bytes)"
            )
        members = len(inv)
        # the candidates take the name inv, so that neither the layer nor,
        # once the kept ones are copied, the candidates outlive their use
        inv = inv[f]
        runs = np.searchsorted(g, np.arange(n + 1)).tolist()
        for s, (lo, hi) in enumerate(zip(runs, runs[1:])):
            c = inv[lo:hi]
            c -= c[:, :, s, None] * group._form2[s]
        neg = negative(inv, axis=1)
        keep = neg.argmax(axis=1) == g
        layers.append((f[keep] + start, g[keep] + 1))
        start += members
        inv, neg = inv[keep], neg[keep]
    return Ball(group, radius, layers)


def _lexmin_involutions(group, layers):
    """`MatrixElement`s of the involutions stacked in `layers` (layer l - 1
    holds length l), in (length, word) order, each with its lexmin word and
    its matrix stepped along that word.

    An involution's left descents are the negative columns of its own
    matrix, since w^-1 = w.  Each letter position peels the smallest one off
    every matrix still that long at once, as `reduce_word` does for one word;
    the matrices are in length order, so those form a suffix.  Each peel
    shortens by exactly one, so a matrix with no descent before its length,
    or one left after it, raises ToleranceError: the sign rule's margin of 1
    makes that test free of the entries' scale.  Two matrices peeling to one
    word are one element kept twice, and raise too: that guards the walk's
    one-parent rule.
    """
    R = len(layers)
    lengths = np.repeat(np.arange(1, R + 1), [len(m) for m in layers])
    mats = np.concatenate([np.empty((0, group.rank, group.rank)), *layers])
    letters = np.full((len(mats), R), -1)  # 0-based, -1 past the word's end
    starts = np.searchsorted(lengths, np.arange(R), "right")  # the words longer than t
    for t, a in enumerate(starts.tolist()):
        neg = negative(mats[a:], axis=1)
        if not neg.any(axis=1).all():
            raise ToleranceError("peeling descents stopped short of the length")
        letters[a:, t] = neg.argmax(axis=1)
        mats[a:] = group._mul_gens(mats[a:], letters[a:, t])
    if negative(mats, axis=1).any():
        raise ToleranceError("peeling descents outgrew the length")
    letters = letters[np.lexsort([*letters.T[::-1], lengths])]
    if (letters[1:] == letters[:-1]).all(axis=1).any():
        raise ToleranceError("walk split: two matrices peel to one word")
    mats[:] = group.identity_mat
    for t, a in enumerate(starts.tolist()):
        mats[a:] = group._mul_gens(mats[a:], letters[a:, t])
    mats.flags.writeable = False
    words = [tuple(w[:l]) for w, l in zip((letters + 1).tolist(), lengths.tolist())]
    return list(map(MatrixElement, [group] * len(words), mats, words, _mat_keys(mats)))


def walk_involutions(group, radius):
    """The involutions w != 1 of length <= radius, in (length, word) order,
    as `MatrixElement`s that equal `element_from_word(w.word)`, matrix and
    key.

    The ascending twisted-involution walk, cut at `radius`: an ascent s of
    an involution x is a column of positive sum, and the next involution y
    is xs, one longer, when x . a_s = a_s, and sxs, two longer, otherwise.
    x . a_s = a_s exactly when s x . a_s is negative, since s keeps every
    positive root but a_s positive.  Every involution is reached from the
    identity this way (Richardson-Springer 1990; Hultman 2005), from each
    of its descents, and nothing else is visited.  y is kept only when s is
    its least descent, so it is kept once, as in `enumerate_ball`, and no
    candidate is compared with another.  The signs that pick the kept y are
    carried to the round that steps them, so no column is summed twice.
    Words come last, for every length at once (`_lexmin_involutions`),
    whose split check guards that rule.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    mats = group.identity_mat[None]
    neg = negative(mats, axis=1)  # the signs of their columns
    layers = []
    # the kept involutions two longer than the last layer, and their signs
    sxs, sxs_neg = mats[:0], neg[:0]
    for _ in range(radius):
        f, s = np.nonzero(~neg)  # l(xs) > l(x)
        image = mats[f, :, s]  # x . a_s
        image[np.arange(len(s)), s] -= np.einsum("mk,mk->m", group._form2[s], image)
        fixed = negative(image)  # s x . a_s < 0, so x . a_s = a_s
        y = group._mul_gens(mats[f], s)  # xs, and sxs (row s of xs less 2 <a_s, .> xs)
        m = np.flatnonzero(~fixed)
        y[m, s[m]] -= np.einsum("mk,mkj->mj", group._form2[s[m]], y[m])
        y_neg = negative(y, axis=1)
        keep = y_neg.argmax(axis=1) == s  # s is y's least descent
        now, later = keep & fixed, keep & ~fixed
        mats, neg = np.concatenate([sxs, y[now]]), np.concatenate([sxs_neg, y_neg[now]])
        sxs, sxs_neg = y[later], y_neg[later]
        layers.append(mats)
        if not len(mats) and not len(sxs):
            break
    return _lexmin_involutions(group, layers)


def involution_graph(group, radius):
    """The excess-zero graph on `walk_involutions(group, radius)`, in their
    order (`_graph_on`)."""
    return _graph_on(group, walk_involutions(group, radius), radius)


def _graph_on(group, invs, radius):
    """The excess-zero graph on the involutions `invs` of a ball of the
    given radius, in their order.  Their N-set roots get columns in one
    `root_columns` call, and only the roots that two or more N-sets hold are
    packed: a root in one N-set meets no other (`graph._row_blocks` drops
    it too), and the bool matrix to pack spans the shared roots only."""
    cols = root_columns(group.n_set_vectors([z.word for z in invs]))
    owner = np.repeat(np.arange(len(invs)), [z.length for z in invs])
    held = np.bincount(cols) > 1  # the columns of the shared roots
    shared = held[cols]
    member = np.zeros((len(invs), np.count_nonzero(held)), dtype=bool)
    member[owner[shared], (np.cumsum(held) - 1)[cols[shared]]] = True
    return E0Graph(InvolutionSet(group, invs, pack_words(member)), radius)


def universal_neighborhood(x, graph):
    """Neighbourhood of the vertex x of an `involution_graph` of a universal
    group, by the last-letter rule.

    In a group with no braid relations every element has one reduced word,
    and an involution's neighbours are exactly the involutions whose word
    does not end with x's last letter.
    """
    if not graph.group.is_universal:
        raise SpecError("last-letter neighbourhoods need a universal group")
    graph.vertices.index_of(x)  # ValueError when x is not a vertex
    last = x.word[-1]
    return [z for z in graph.vertices if z.word[-1] != last]


# ---------------------------------------------------------------------------
# Evidence reports for the diameter claims
# ---------------------------------------------------------------------------

@dataclass
class Claim:
    description: str
    ok: bool
    witness: dict = field(default_factory=dict)


@dataclass
class EvidenceReport:
    kind: str
    group_label: str
    radius: int
    diameter_claim: int
    claims: list

    @property
    def ok(self):
        return all(c.ok for c in self.claims)

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "group": self.group_label,
            "radius": self.radius,
            "extra": EXTRA,
            "diameter_claim": self.diameter_claim,
            "ok": self.ok,
            "claims": [
                {"description": c.description, "ok": c.ok, "witness": c.witness}
                for c in self.claims
            ],
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_json_dict(), **kwargs)


def ball_graph_diameter_evidence(group, radius):
    """Finite evidence for the diameter of an infinite group's graph.

    Universal groups (including the infinite dihedral one) get diameter-2
    evidence: a non-adjacent witness pair, plus a distance <= 2 certificate
    for every involution pair in the ball, with common neighbours searched
    in the enlarged ball of radius + `EXTRA`.  Other infinite groups get the
    two-finite-maximal-parabolic certificate for diameter 3.
    """
    if radius < 3:
        raise ValueError("radius too small to contain witnesses (need >= 3)")
    if group.is_universal:
        return _universal_evidence(group, radius)
    return _max_parabolic_evidence(group, radius)


def _pair_scan(g, radius):
    """(rows, far, alone) over the n involutions of length <= radius, which
    come first in the graph g: rows is their n x ceil(V/64) block of the
    packed matrix `g.rows`, far[i, j] marks the non-adjacent pairs i < j,
    and alone[i, j] the pairs with no common neighbour anywhere in g."""
    n = sum(1 for z in g.vertices if z.length <= radius)
    rows = g.rows[:n]
    return rows, np.triu(~gr._bools(rows, n), 1), _no_common_neighbour(rows)


def _no_common_neighbour(rows):
    """The n x n bools of n packed adjacency rows, [i, j] set iff i != j
    and rows i and j are disjoint: the kernel's test, with the rows read as
    the (W, n) words of n N-sets (`graph._pairwise_disjoint_rows`)."""
    return gr._bools(gr._pairwise_disjoint_rows(np.ascontiguousarray(rows.T)), len(rows))


def _first_pair(mask):
    """The first (i, j) with mask[i, j] set, in row-major order, so the first
    pair (i, j > i) of a scan; None when no entry is set."""
    return divmod(int(mask.argmax()), mask.shape[1]) if mask.any() else None


def _single_coordinate_middle(rows, far, one_coord):
    """(i, j, m): the first pair (i, j) marked in `far` with a common
    neighbour m in `one_coord`, and the first such m; None when no pair has
    one.  rows and far are as in `_pair_scan`, and one_coord is packed as
    one of the rows."""
    padded = _first_pair(far & ~_no_common_neighbour(rows & one_coord))
    if padded is None:
        return None
    i, j = padded
    return i, j, int(np.argmax(gr._bools(rows[i] & rows[j] & one_coord, 64 * rows.shape[1])))


def _words(elems, indices, names=None):
    """The words of the indexed elements, as a list or a dict under `names`."""
    words = [format_word(elems[i].word) for i in indices]
    return words if names is None else dict(zip(names, words))


def _distance_2_claims(invs, far, alone, radius, searched=""):
    """The claims [witness, failure] of a diameter-2 scan: some pair marked
    in `far`, and none of them `alone` (see `_pair_scan`)."""
    witness, failure = _first_pair(far), _first_pair(far & alone)
    return [
        Claim("some involution pair is non-adjacent (distance >= 2)", witness is not None,
              {} if witness is None else _words(invs, witness, "xy")),
        Claim(f"every involution pair in the radius-{radius} ball is at distance <= 2{searched}",
              failure is None, {} if failure is None else {"pair": _words(invs, failure)}),
    ]


def _universal_evidence(group, radius):
    g = involution_graph(group, radius + EXTRA)
    _, far, alone = _pair_scan(g, radius)
    claims = _distance_2_claims(g.vertices.elements, far, alone, radius,
                                f" (common neighbours searched at radius {radius + EXTRA})")
    return EvidenceReport("universal-diameter-2", group.label, radius, 2, claims)


def _max_parabolic_evidence(group, radius):
    """Diameter-3 certificate from two finite maximal parabolic subgroups."""
    R = set(group.generators)
    # the first two r whose maximal parabolic on R - {r} is finite
    finite = [r for r in sorted(R) if group.parabolic_matrix(R - {r}).is_finite][:2]
    exists = "two finite maximal parabolic subgroups exist"
    if len(finite) < 2:
        claims = [Claim(exists, False, {})]
        return EvidenceReport("max-parabolic-diameter-3", group.label, radius, 3, claims)
    r, s = finite
    x, y = (group.parabolic_longest(R - {t}) for t in finite)

    # the graph reaches x and y; the scan covers the radius-`radius` ball
    g = involution_graph(group, max(radius, x.length, y.length))
    invs = g.vertices.elements
    ix, iy = g.vertices.index_of(x), g.vertices.index_of(y)
    n = sum(1 for z in invs if z.length <= radius)
    row_x, row_y = g.row(ix), g.row(iy)
    scan = [k for k in np.flatnonzero(row_x[:n] | row_y[:n]).tolist() if k not in (ix, iy)]
    # the descents of x, y and every scanned neighbour, from their matrices:
    # for an involution the left and right descents agree
    descents = [
        {i + 1 for i in np.flatnonzero(row).tolist()}
        for row in negative(np.stack([invs[k].mat for k in [ix, iy, *scan]]), axis=1)
    ]
    descents_x, descents_y = descents[:2]
    bad = [(invs[k], sorted(left)) for k, left in zip(scan, descents[2:])
           for row, t in ((row_x, r), (row_y, s)) if row[k] and left != {t}]
    claims = [
        Claim(exists, True,
              {"r": r, "s": s, "x": format_word(x.word), "y": format_word(y.word)}),
        Claim(
            "parabolic longest elements have every generator but one as a "
            "descent, so all their neighbours' reduced words start with the "
            "missing generator",
            descents_x == R - {r} and descents_y == R - {s},
            {"descents_x": sorted(descents_x), "descents_y": sorted(descents_y)},
        ),
        Claim(
            "ball scan: neighbours of the two witnesses have the forced "
            "one-generator descent set, hence the witnesses share none",
            not bad,
            {} if not bad else {"z": format_word(bad[0][0].word), "descents": bad[0][1]},
        ),
        Claim(
            "the witnesses themselves are non-adjacent (distance exactly 3, "
            "given connectivity and the diameter <= 3 bound)",
            not row_x[iy],
            {},
        ),
    ]
    return EvidenceReport("max-parabolic-diameter-3", group.label, radius, 3, claims)


def product_diameter_check(specs, radius):
    """Ball checks for a direct product of infinite groups.

    Verifies the coordinatewise adjacency criterion against the direct
    N-set test, then certifies distance <= 2 for every involution pair via
    a middle vertex supported in a single coordinate.
    """
    specs = [parse_group_spec(s) if isinstance(s, str) else s for s in specs]
    for s in specs:
        if s.is_finite:
            raise SpecError(f"factor {s.label} is finite; the product check "
                            "covers infinite factors")
        if len(s.factors) != 1:
            raise SpecError("pass each irreducible factor separately")
    if len(specs) == 1:
        group = InfiniteCoxeterGroup.from_spec(specs[0])
        return ball_graph_diameter_evidence(group, radius)

    product_spec = GroupSpec(tuple(f for s in specs for f in s.factors))
    group = InfiniteCoxeterGroup.from_spec(product_spec)
    factors = [InfiniteCoxeterGroup.from_spec(s) for s in specs]
    offsets = []
    ofs = 0
    for f in factors:
        offsets.append(ofs)
        ofs += f.rank

    def project(word, k):
        lo = offsets[k]
        hi = lo + factors[k].rank
        return tuple(l - lo for l in word if lo < l <= hi)

    g = involution_graph(group, radius + EXTRA)
    invs = g.vertices.elements
    # one graph per distinct factor: U3xU3 walks U3 once
    graph_of = {s: involution_graph(f, radius + EXTRA)
                for s, f in dict(zip(specs, factors)).items()}
    factor_graphs = [graph_of[s] for s in specs]
    # coords[v, k]: the vertex of factor graph k that is the k-th coordinate
    # of involution v, or -1 where that coordinate is the identity.  The
    # lexmin word of a product member projects onto the lexmin word of each
    # coordinate, so a coordinate is looked up by its word.
    coords = np.full((len(invs), len(factors)), -1)
    for k, fg in enumerate(factor_graphs):
        vertex = {z.word: i for i, z in enumerate(fg.vertices)}
        for v, z in enumerate(invs):
            if word := project(z.word, k):
                coords[v, k] = vertex[word]

    rows, far, alone = _pair_scan(g, radius)
    n = len(rows)
    coordwise = np.ones((n, n), dtype=bool)  # an identity coordinate never blocks
    for k, fg in enumerate(factor_graphs):
        on = np.flatnonzero(coords[:n, k] >= 0)
        # each distinct coordinate once; equal ones get the diagonal's False
        u, at = np.unique(coords[on, k], return_inverse=True)
        apart = gr._bools(gr._pairwise_disjoint_rows(fg.words[:, u]), len(u))
        coordwise[np.ix_(on, on)] &= apart[np.ix_(at, at)]
    mismatch = _first_pair(np.triu(gr._bools(rows, n) != coordwise, 1))
    one_coord = pack_words(((coords >= 0).sum(axis=1) == 1)[None])[:, 0]
    padded = _single_coordinate_middle(rows, far, one_coord)
    witness, failure = _distance_2_claims(invs, far, alone, radius)
    claims = [
        Claim(
            "adjacency in the product agrees with the coordinatewise "
            "criterion on every ball pair",
            mismatch is None,
            {} if mismatch is None else {"pair": _words(invs, mismatch)},
        ),
        failure,
        Claim(
            "some middle vertex is supported in a single coordinate "
            "(identity elsewhere)",
            padded is not None,
            {} if padded is None else _words(invs, padded, ("x", "y", "middle")),
        ),
        witness,
    ]
    return EvidenceReport("product-diameter-2", group.label, radius, 2, claims)
