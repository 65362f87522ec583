"""Type-A specializations: involutions of Sym(n) and the valency recursion.

Sym(n) is W(A_{n-1}) with r_i the adjacent transposition (i, i+1).  For x a
product of m distinct mutually commuting adjacent transpositions (a minimal
length involution in its conjugacy class), delta(m, n) is the number of
neighbours of x in the excess-zero graph of Sym(n); it depends only on
(m, n) and satisfies

    delta(m, n) = (delta(m-1, n) + (m-1) delta(m-2, n-4) + m - 2) / 2

for m >= 2 and n >= 2m, with delta(0, n) = |I(Sym(n))| and delta(m, 0) = 0.
The graph degree of the canonical representative is kept as an independent
brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .coxeter import CoxeterGroup, telephone
from .graph import build_graph

BRUTE_FORCE_MAX_N = 9  # Sym(9) = W(A8) is the largest group we enumerate here


def involution_count(n):
    """|I(Sym(n))|, the non-identity involutions: T(n) - 1."""
    return telephone(n) - 1


def _check_delta_args(m, n):
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    if m >= 1 and n < 2 * m:
        raise ValueError(f"delta({m},{n}) needs n >= 2m")


@lru_cache(maxsize=None)
def delta(m, n):
    """delta(m, n) by the recursion, memoized; always an exact integer."""
    _check_delta_args(m, n)
    if n == 0:
        return 0  # covers delta(0, 0) as well: Sym(0) has no involutions
    if m == 0:
        return involution_count(n)
    if m == 1:
        num = involution_count(n) - 1
        assert num % 2 == 0, f"delta(1,{n}) is not an integer"
        return num // 2
    num = delta(m - 1, n) + (m - 1) * delta(m - 2, n - 4) + m - 2
    assert num % 2 == 0, f"delta({m},{n}) recursion left a remainder"
    return num // 2


def delta_closed_form(m, n):
    """Closed forms for m in {1, 2, 3, 4} on their stated domains."""
    bounds = {1: 2, 2: 4, 3: 6, 4: 8}
    if m not in bounds:
        raise ValueError("closed forms exist for m in {1, 2, 3, 4}")
    if n < bounds[m]:
        raise ValueError(f"delta_closed_form({m},{n}) needs n >= {bounds[m]}")
    I = involution_count
    if m == 1:
        num, den = I(n) - 1, 2
    elif m == 2:
        num, den = I(n) + 2 * I(n - 4) - 1, 4
    elif m == 3:
        num, den = I(n) + 6 * I(n - 4) - 1, 8
    else:
        num, den = I(n) + 12 * I(n - 4) + 12 * I(n - 8) + 9, 16
    assert num % den == 0, f"closed form for ({m},{n}) is not an integer"
    return num // den


@dataclass(frozen=True)
class Matching:
    """An involution of Sym(n) as its set of transposed pairs."""

    pairs: tuple  # of (a, b) with a < b, pairwise disjoint
    n: int

    def __post_init__(self):
        used = set()
        for a, b in self.pairs:
            if not 1 <= a < b <= self.n:
                raise ValueError(f"bad pair ({a},{b}) for n={self.n}")
            if a in used or b in used:
                raise ValueError("pairs are not disjoint")
            used.update((a, b))

    @classmethod
    def from_pairs(cls, pairs, n):
        return cls(tuple(sorted(tuple(sorted(p)) for p in pairs)), n)

    def word(self):
        """A word for the element: each pair (a,b) as a transposition chain."""
        out = []
        for a, b in self.pairs:
            out.extend(range(b - 1, a, -1))
            out.append(a)
            out.extend(range(a + 1, b))
        return tuple(out)

    def to_element(self, group=None):
        group = _sym_group(self.n) if group is None else group
        return group.element_from_word(self.word())

    def __str__(self):
        return "".join(f"({a} {b})" for a, b in self.pairs)


@lru_cache(maxsize=None)
def _sym_group(n):
    """W(A_{n-1}), acting as Sym(n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return CoxeterGroup.from_spec(f"A{n - 1}")


def min_length_class_representatives(m, n):
    """All products of m distinct mutually commuting adjacent transpositions.

    These are the minimal-length members of the m-transposition conjugacy
    class of Sym(n): pick starts a_1 < ... < a_m with gaps >= 2.
    """
    if m < 1 or n < 2 * m:
        raise ValueError("need m >= 1 and n >= 2m")
    out = []
    for starts in combinations(range(1, n), m):
        if all(b - a >= 2 for a, b in zip(starts, starts[1:])):
            out.append(Matching.from_pairs([(a, a + 1) for a in starts], n))
    return out


def canonical_representative(m, n):
    """(1 2)(3 4)...(2m-1 2m) inside Sym(n)."""
    return Matching.from_pairs([(2 * i - 1, 2 * i) for i in range(1, m + 1)], n)


def delta_bruteforce(m, n):
    """Graph degree of the canonical representative; the oracle for delta."""
    if m < 1 or n < 2 * m:
        raise ValueError("need m >= 1 and n >= 2m")
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_MAX_N}")
    group = _sym_group(n)
    g = build_graph(group)
    x = canonical_representative(m, n).to_element(group)
    return g.degree(g.vertices.index_of(x))


def wlog_check(m, n):
    """Do all minimal-length representatives share one graph degree?"""
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_MAX_N}")
    group = _sym_group(n)
    g = build_graph(group)
    degrees = {
        g.degree(g.vertices.index_of(rep.to_element(group)))
        for rep in min_length_class_representatives(m, n)
    }
    return len(degrees) == 1


def permutation_of_element(w):
    """The permutation of {1..n} realized by an element of W(A_{n-1})."""
    n = w.group.rank + 1
    img = list(range(n + 1))  # 1-based; precompose each letter in turn
    for s in w.word:
        img[s], img[s + 1] = img[s + 1], img[s]
    return tuple(img[1:])


def matching_of_element(w):
    """Matching form of an involution of W(A_{n-1})."""
    perm = permutation_of_element(w)
    n = len(perm)
    pairs = [(i + 1, perm[i]) for i in range(n) if perm[i] > i + 1]
    for i in range(n):
        t = perm[i]
        if perm[t - 1] != i + 1:
            raise ValueError("element is not an involution")
    return Matching.from_pairs(pairs, n)
