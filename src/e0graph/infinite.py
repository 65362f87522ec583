"""Bounded-ball exploration of infinite Coxeter groups.

Elements are stored as (matrix of the reflection representation, reduced
word); matrices are the canonical form (words are not unique across braid
moves) and are deduplicated on entries rounded to 1e-6, with a hard failure
if two matrices land on one key while differing by more than 1e-5.

`enumerate_ball` works one BFS layer at a time in numpy: a layer is an
(F, n, n) float64 array of matrices, carried with the array of their
inverses.  Right multiplication by a generator s is the rank-one update
M - 2 M[:, s-1] <a_s, .>, O(n^2) per element, and the inverse changes in
row s-1 only.  Single elements step with the same formula, so a matrix
reached along the same word is bit-identical on both paths.  w is an
involution when its key equals the key of w^-1; comparing keys keeps the
test on the rounding grid, where an absolute bound on M^2 - 1 fails once
the entries grow large.  A ball builds its root system only when it is
first asked for an N-set.  N-sets are read off the reduced word, so
adjacency between ball members is exact, not an artifact of the truncation
radius.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coxeter import (
    INFINITE_BOND,
    SIGN_EPS,
    CoxeterMatrix,
    GroupSpec,
    GeometricGroup,
    SpecError,
    ToleranceError,
    float_keys,
    format_word,
    generate_root_system,
    parse_group_spec,
)

MATRIX_KEY_DECIMALS = 6
MATRIX_COLLISION_TOL = 1e-5


def _mat_keys(mats):
    """Keys of a stack of matrices; the one key of a group element."""
    return float_keys(mats, MATRIX_KEY_DECIMALS)


def _negative_columns(mat, generators):
    """The generators s whose column mat . a_s is not a positive root."""
    positive = (mat >= -SIGN_EPS).all(axis=0)
    return {s for s in generators if not positive[s - 1]}


class MatrixElement:
    """A group member of an infinite group: matrix plus a reduced word."""

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
        rw = tuple(reversed(self.word))  # reversal of a reduced word is reduced
        return MatrixElement(self.group, self.group._word_mat(rw), rw)

    def is_identity(self):
        return not self.word

    def is_involution(self):
        """w != 1 and w = w^-1, compared by key."""
        return bool(self.word) and self.inverse().key == self.key

    def n_set_vectors(self):
        return self.group.n_set_vectors(self.word)

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
        self._roots_by_depth = {}

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

    def root_system(self, depth):
        """Root system generated to the given depth (cached per depth)."""
        if depth not in self._roots_by_depth:
            self._roots_by_depth[depth] = generate_root_system(
                self.matrix, max_depth=depth
            )
        return self._roots_by_depth[depth]

    # -- carriers for the shared word machinery --------------------------------

    def _carrier_identity(self):
        return self.identity_mat

    def _carrier_mul_gen(self, carrier, s):
        # entry for entry the layer step of enumerate_ball
        return carrier - carrier[:, s - 1, None] * self._form2[s - 1]

    def _carrier_sends_simple_positive(self, carrier, s):
        return carrier[:, s - 1].min() >= -SIGN_EPS

    def _word_mat(self, word):
        mat = self.identity_mat
        for s in word:
            mat = self._carrier_mul_gen(mat, s)
        mat.flags.writeable = False
        return mat

    # -- elements ---------------------------------------------------------------

    @property
    def identity(self):
        return MatrixElement(self, self.identity_mat, ())

    def element_from_word(self, word):
        """Element with the given letters; the stored word is reduced."""
        self._check_letters(word)
        word = self.reduce_word(tuple(word))
        return MatrixElement(self, self._word_mat(word), word)

    def generator(self, i):
        return MatrixElement(self, self._word_mat((i,)), (i,))

    def n_set_vectors(self, word):
        """N(w) for a reduced word, as root coefficient vectors.

        For w = s_1 ... s_k these are a_{s_k}, s_k . a_{s_{k-1}}, ...,
        s_k ... s_2 . a_{s_1}.
        """
        out = []
        M = self.identity_mat
        for s in reversed(word):
            if not self._carrier_sends_simple_positive(M, s):
                raise ToleranceError("reduced word produced a negative N-set root")
            out.append(M[:, s - 1])
            M = self._carrier_mul_gen(M, s)
        return out

    def descent_sets(self, w):
        """(left, right) descent sets; for involutions the two coincide."""
        return (
            _negative_columns(w.inverse().mat, self.generators),
            _negative_columns(w.mat, self.generators),
        )

    def parabolic_longest(self, J):
        """Longest element of W_J; requires that parabolic to be finite."""
        J = sorted(set(J))
        sub = [[self.matrix.order(i, j) for j in J] for i in J]
        sub_roots = generate_root_system(CoxeterMatrix(sub), max_depth=256)
        if not sub_roots.complete:
            raise SpecError(f"parabolic on {J} is not finite")
        bound = sub_roots.pos_count
        mat = self.identity_mat
        word = []
        while True:
            s = next(
                (t for t in J if self._carrier_sends_simple_positive(mat, t)), None
            )
            if s is None:
                break
            word.append(s)
            if len(word) > bound:
                raise ToleranceError("parabolic ascent exceeded its root count")
            mat = self._carrier_mul_gen(mat, s)
        mat.flags.writeable = False
        return MatrixElement(self, mat, tuple(word))


class Ball:
    """All elements of length <= radius, with exact N-set adjacency."""

    def __init__(self, group, radius, elements, involutions, root_depth=None):
        self.group = group
        self.radius = radius
        self.elements = elements  # in (length, word) order
        self.by_key = {e.key: e for e in elements}
        self._involutions = involutions
        self._root_depth = max(radius, root_depth or 0, 1)
        self._nbits = {}

    @cached_property
    def root_system(self):
        """The roots to depth max(radius, root_depth), built on first use."""
        return self.group.root_system(self._root_depth)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, elem):
        return elem.key in self.by_key

    def involutions(self):
        """Members w != 1 with w = w^-1, in (length, word) order."""
        return self._involutions

    def n_bits(self, elem):
        bits = self._nbits.get(elem.key)
        if bits is None:
            bits = 0
            for idx in self.root_system.indices_of(elem.n_set_vectors()):
                if idx is None:
                    raise ToleranceError(
                        f"root of {elem!r} escaped the generated system "
                        f"(depth {self.radius})"
                    )
                bits |= 1 << idx
            self._nbits[elem.key] = bits
        return bits

    def is_adjacent(self, x, y):
        """Exact edge test for involutions in the ball."""
        return self.n_bits(x) & self.n_bits(y) == 0

    def common_neighbors(self, x, y, candidates=None):
        pool = self.involutions() if candidates is None else candidates
        bx, by = self.n_bits(x), self.n_bits(y)
        return [
            z
            for z in pool
            if z.key != x.key and z.key != y.key
            and self.n_bits(z) & bx == 0
            and self.n_bits(z) & by == 0
        ]

    def degree_within(self, x):
        return sum(
            1 for z in self.involutions() if z.key != x.key and self.is_adjacent(x, z)
        )


def enumerate_ball(group, radius, root_depth=None):
    """All elements of length <= radius, one BFS layer at a time.

    A layer steps every frontier matrix, and its inverse, by each generator
    that lengthens it, in (frontier element, generator) order.  The first
    candidate on a key wins, so every stored word is the shortlex-least
    reduced word and the elements come out in (length, word) order.  A key
    hit on a matrix that differs by more than MATRIX_COLLISION_TOL aborts.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    form2 = group._form2
    mats = invs = group.identity_mat[None]
    words = [()]
    keys = _mat_keys(mats)
    registry = {keys[0]: 0}  # key -> index in the ball
    layers = [(mats, words, keys, [False])]
    for _ in range(radius):
        f, g = np.nonzero((mats >= -SIGN_EPS).all(axis=1))  # l(ws) > l(w)
        if not len(f):
            break
        cand = mats[f] - mats[f, :, g][:, :, None] * form2[g][:, None, :]
        cand_keys = _mat_keys(cand)
        base = len(registry)
        keep, hit_c, hit_j = [], [], []
        for c, k in enumerate(cand_keys):
            j = registry.setdefault(k, base + len(keep))
            if j == base + len(keep):
                keep.append(c)
            else:
                hit_c.append(c)
                hit_j.append(j)
        new = cand[keep]
        if hit_c:
            if min(hit_j) < base:  # an earlier layer: only float error gets here
                prev = np.concatenate([lay[0] for lay in layers] + [new])[hit_j]
            else:
                prev = new[np.array(hit_j) - base]
            if np.abs(cand[hit_c] - prev).max() > MATRIX_COLLISION_TOL:
                raise ToleranceError("matrix key collision between distinct elements")
        f, g = f[keep], g[keep]
        invs = invs[f]
        rows = np.arange(len(keep))
        invs[rows, g] -= np.einsum("mk,mkj->mj", form2[g], invs)
        words = [words[a] + (b + 1,) for a, b in zip(f.tolist(), g.tolist())]
        keys = [cand_keys[c] for c in keep]
        is_inv = [a == b for a, b in zip(keys, _mat_keys(invs))]
        new.flags.writeable = False
        mats = new
        layers.append((mats, words, keys, is_inv))
    elements, involutions = [], []
    for layer in layers:
        for m, w, k, inv in zip(*layer):
            elements.append(MatrixElement(group, m, w, k))
            if inv:
                involutions.append(elements[-1])
    return Ball(group, radius, elements, involutions, root_depth=root_depth)


def universal_neighborhood(x, ball):
    """Neighbourhood of x in a universal group, by the last-letter rule.

    In a group with no braid relations every element has one reduced word,
    and an involution's neighbours are exactly the involutions whose word
    does not end with x's last letter.
    """
    if not ball.group.is_universal:
        raise SpecError("last-letter neighbourhoods need a universal group")
    if x not in ball:
        raise ValueError(f"{x!r} is not in the ball")
    last = x.word[-1]
    return [z for z in ball.involutions() if z.word[-1] != last]


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
    extra: int
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
            "extra": self.extra,
            "diameter_claim": self.diameter_claim,
            "ok": self.ok,
            "claims": [
                {"description": c.description, "ok": c.ok, "witness": c.witness}
                for c in self.claims
            ],
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_json_dict(), **kwargs)


def ball_graph_diameter_evidence(group, radius, extra=2):
    """Finite evidence for the diameter of an infinite group's graph.

    Universal groups (including the infinite dihedral one) get diameter-2
    evidence: a non-adjacent witness pair, plus a distance <= 2 certificate
    for every involution pair in the ball, with common neighbours searched
    in the enlarged ball of radius + extra.  Other infinite groups get the
    two-finite-maximal-parabolic certificate for diameter 3.
    """
    if radius < 3:
        raise ValueError("radius too small to contain witnesses (need >= 3)")
    if group.is_universal:
        return _universal_evidence(group, radius, extra)
    return _max_parabolic_evidence(group, radius, extra)


def _universal_evidence(group, radius, extra):
    big = enumerate_ball(group, radius + extra)
    small_invs = [e for e in big.involutions() if e.length <= radius]
    claims = []

    witness = None
    for i, x in enumerate(small_invs):
        for y in small_invs[i + 1 :]:
            if not big.is_adjacent(x, y):
                witness = (x, y)
                break
        if witness:
            break
    claims.append(
        Claim(
            "some involution pair is non-adjacent (distance >= 2)",
            witness is not None,
            {} if witness is None else {
                "x": format_word(witness[0].word),
                "y": format_word(witness[1].word),
            },
        )
    )

    failures = []
    big_invs = big.involutions()
    for i, x in enumerate(small_invs):
        for y in small_invs[i + 1 :]:
            if big.is_adjacent(x, y):
                continue
            if not big.common_neighbors(x, y, big_invs):
                failures.append((x, y))
    claims.append(
        Claim(
            f"every involution pair in the radius-{radius} ball is at "
            f"distance <= 2 (common neighbours searched at radius "
            f"{radius + extra})",
            not failures,
            {}
            if not failures
            else {
                "pair": [
                    format_word(failures[0][0].word),
                    format_word(failures[0][1].word),
                ]
            },
        )
    )
    return EvidenceReport(
        "universal-diameter-2", group.label, radius, extra, 2, claims
    )


def _max_parabolic_evidence(group, radius, extra):
    """Diameter-3 certificate from two finite maximal parabolic subgroups."""
    R = set(group.generators)
    pair = None
    for r in sorted(R):
        for s in sorted(R):
            if s <= r:
                continue
            try:
                x = group.parabolic_longest(R - {r})
                y = group.parabolic_longest(R - {s})
            except (SpecError, ToleranceError):
                continue
            pair = (r, s, x, y)
            break
        if pair:
            break
    claims = []
    if pair is None:
        claims.append(
            Claim("two finite maximal parabolic subgroups exist", False, {})
        )
        return EvidenceReport(
            "max-parabolic-diameter-3", group.label, radius, extra, 3, claims
        )
    r, s, x, y = pair
    claims.append(
        Claim(
            "two finite maximal parabolic subgroups exist",
            True,
            {"r": r, "s": s, "x": format_word(x.word), "y": format_word(y.word)},
        )
    )

    ball = enumerate_ball(group, radius, root_depth=max(x.length, y.length))
    ball.n_bits(x), ball.n_bits(y)  # force the roots to resolve

    simple_bits_x = _simple_descents_from_nset(ball, x)
    simple_bits_y = _simple_descents_from_nset(ball, y)
    claims.append(
        Claim(
            "parabolic longest elements have every generator but one as a "
            "descent, so all their neighbours' reduced words start with the "
            "missing generator",
            simple_bits_x == R - {r} and simple_bits_y == R - {s},
            {"descents_x": sorted(simple_bits_x), "descents_y": sorted(simple_bits_y)},
        )
    )

    bad = []
    for z in ball.involutions():
        if z.key in (x.key, y.key):
            continue
        if ball.is_adjacent(x, z):
            left, right = group.descent_sets(z)
            if left != {r}:
                bad.append((z, sorted(left)))
        if ball.is_adjacent(y, z):
            left, right = group.descent_sets(z)
            if left != {s}:
                bad.append((z, sorted(left)))
    claims.append(
        Claim(
            "ball scan: neighbours of the two witnesses have the forced "
            "one-generator descent set, hence the witnesses share none",
            not bad,
            {} if not bad else {"z": format_word(bad[0][0].word), "descents": bad[0][1]},
        )
    )

    claims.append(
        Claim(
            "the witnesses themselves are non-adjacent (distance exactly 3, "
            "given connectivity and the diameter <= 3 bound)",
            not ball.is_adjacent(x, y),
            {},
        )
    )
    return EvidenceReport(
        "max-parabolic-diameter-3", group.label, radius, extra, 3, claims
    )


def _simple_descents_from_nset(ball, w):
    bits = ball.n_bits(w)
    out = set()
    for i in ball.group.generators:
        if (bits >> (i - 1)) & 1:  # simple root of generator i has index i-1
            out.add(i)
    return out


def product_diameter_check(specs, radius, extra=2):
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
        return ball_graph_diameter_evidence(group, radius, extra)

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

    big = enumerate_ball(group, radius + extra)
    small_invs = [e for e in big.involutions() if e.length <= radius]
    factor_balls = [enumerate_ball(f, radius + extra) for f in factors]
    claims = []

    mismatch = []
    for i, x in enumerate(small_invs):
        for y in small_invs[i + 1 :]:
            direct = big.is_adjacent(x, y)
            coordwise = True
            for k, fb in enumerate(factor_balls):
                xw, yw = project(x.word, k), project(y.word, k)
                if not xw or not yw:
                    continue  # an identity coordinate never blocks adjacency
                xk = fb.by_key[factors[k].element_from_word(xw).key]
                yk = fb.by_key[factors[k].element_from_word(yw).key]
                if fb.n_bits(xk) & fb.n_bits(yk):
                    coordwise = False
                    break
            if direct != coordwise:
                mismatch.append((x, y))
    claims.append(
        Claim(
            "adjacency in the product agrees with the coordinatewise "
            "criterion on every ball pair",
            not mismatch,
            {}
            if not mismatch
            else {
                "pair": [
                    format_word(mismatch[0][0].word),
                    format_word(mismatch[0][1].word),
                ]
            },
        )
    )

    failures = []
    padded_used = None
    big_invs = big.involutions()
    for i, x in enumerate(small_invs):
        for y in small_invs[i + 1 :]:
            if big.is_adjacent(x, y):
                continue
            mids = big.common_neighbors(x, y, big_invs)
            if not mids:
                failures.append((x, y))
                continue
            if padded_used is None:
                one_coord = [
                    z
                    for z in mids
                    if sum(1 for k in range(len(factors)) if project(z.word, k)) == 1
                ]
                if one_coord:
                    padded_used = (x, y, one_coord[0])
    claims.append(
        Claim(
            f"every involution pair in the radius-{radius} ball is at "
            "distance <= 2",
            not failures,
            {}
            if not failures
            else {
                "pair": [
                    format_word(failures[0][0].word),
                    format_word(failures[0][1].word),
                ]
            },
        )
    )
    claims.append(
        Claim(
            "some middle vertex is supported in a single coordinate "
            "(identity elsewhere)",
            padded_used is not None,
            {}
            if padded_used is None
            else {
                "x": format_word(padded_used[0].word),
                "y": format_word(padded_used[1].word),
                "middle": format_word(padded_used[2].word),
            },
        )
    )
    witness = next(
        (
            (x, y)
            for i, x in enumerate(small_invs)
            for y in small_invs[i + 1 :]
            if not big.is_adjacent(x, y)
        ),
        None,
    )
    claims.append(
        Claim(
            "some involution pair is non-adjacent (distance >= 2)",
            witness is not None,
            {}
            if witness is None
            else {"x": format_word(witness[0].word), "y": format_word(witness[1].word)},
        )
    )
    return EvidenceReport(
        "product-diameter-2", group.label, radius, extra, 2, claims
    )
