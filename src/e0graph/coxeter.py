"""Finite-rank Coxeter groups realized through their reflection representation.

A group is specified either by a label such as ``A3``, ``B4``, ``I2(7)``,
``U3`` or ``A1xA1``, or by an explicit Coxeter matrix.  The simple roots are
the standard basis of R^n and every root is stored as its coefficient vector
over that basis.  For groups whose root system closes up (the finite ones),
elements are stored as permutations of the root indices, packed into `bytes`
so that composition is a single `bytes.translate` call.  Infinite groups are
handled in :mod:`e0graph.infinite` via the matrix representation.

Generator indices are 1-based everywhere in the public interface, matching
the usual Dynkin-diagram numbering (see README for the conventions used for
the B/F/H diagrams).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

INFINITE_BOND = 0  # encodes m_ij = infinity in Coxeter matrices (also in JSON files)

ROOT_KEY_DECIMALS = 6  # roots are deduplicated on coordinates rounded to 1e-6
SIGN_EPS = 1e-9        # tolerance for the positive/negative root test
CLOSURE_BLOCK = 4096   # frontier roots reflected at once by the root closure


class SpecError(ValueError):
    """Malformed or unsupported group specification."""


class ToleranceError(RuntimeError):
    """Floating-point root/matrix bookkeeping produced an inconsistency."""


# ---------------------------------------------------------------------------
# Coxeter matrices and group specifications
# ---------------------------------------------------------------------------

class CoxeterMatrix:
    """Symmetric matrix of bond orders m_ij; entry 0 encodes infinity."""

    def __init__(self, entries):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        n = len(entries)
        if n == 0:
            raise SpecError("empty Coxeter matrix")
        for i, row in enumerate(entries):
            if len(row) != n:
                raise SpecError(f"row {i + 1} has length {len(row)}, expected {n}")
            if row[i] != 1:
                raise SpecError(f"diagonal entry m_{i + 1}{i + 1} must be 1")
            for j, v in enumerate(row):
                if v != entries[j][i]:
                    raise SpecError(f"matrix not symmetric at ({i + 1},{j + 1})")
                if i != j and v != INFINITE_BOND and v < 2:
                    raise SpecError(f"off-diagonal m_{i + 1}{j + 1} must be >= 2 or infinite")
        self.entries = entries
        self.rank = n

    def order(self, i, j):
        """Bond order m_ij, 1-based; 0 means infinity."""
        return self.entries[i - 1][j - 1]

    @property
    def has_infinite_bond(self):
        return any(v == INFINITE_BOND for row in self.entries for v in row)

    @classmethod
    def block_diagonal(cls, blocks):
        """Assemble a direct product: off-block orders are 2."""
        n = sum(b.rank for b in blocks)
        out = [[2] * n for _ in range(n)]
        ofs = 0
        for b in blocks:
            for i in range(b.rank):
                for j in range(b.rank):
                    out[ofs + i][ofs + j] = b.entries[i][j]
            ofs += b.rank
        return cls(out)

    @classmethod
    def from_json_file(cls, path):
        """Load ``{"rank": n, "m": [[...]]}`` with 0 encoding infinity."""
        with open(path) as fh:
            data = json.load(fh)
        m = data["m"]
        if len(m) != data.get("rank", len(m)):
            raise SpecError("rank field disagrees with matrix size")
        return cls(m)

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"CoxeterMatrix(rank={self.rank})"


# minimal rank per family; E/F/H only exist in the listed ranks
_FAMILY_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "H": lambda n: n in (3, 4),
    "I2": lambda m: m >= 3,
    "U": lambda n: n >= 2,
}

_FACTOR_RE = re.compile(r"([ABDEFH])(\d+)$|I2\((\d+)\)$|U\(?(\d+)\)?$")

_ORDERS = {
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: (1 << n) * math.factorial(n),
    "D": lambda n: (1 << (n - 1)) * math.factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "H": lambda n: {3: 120, 4: 14400}[n],
    "I2": lambda m: 2 * m,
}


@dataclass(frozen=True)
class GroupSpec:
    """Parsed group label: a product of irreducible factors."""

    factors: tuple  # of (family, parameter) pairs

    @property
    def label(self):
        return "x".join(_factor_label(f, p) for f, p in self.factors)

    @property
    def rank(self):
        return sum(2 if f == "I2" else p for f, p in self.factors)

    @property
    def is_product(self):
        return len(self.factors) > 1

    @property
    def is_finite(self):
        return all(f != "U" for f, _ in self.factors)

    def order(self):
        """Group order, or None when infinite."""
        if not self.is_finite:
            return None
        out = 1
        for f, p in self.factors:
            out *= _ORDERS[f](p)
        return out

    def coxeter_matrix(self):
        return build_coxeter_matrix(self)

    def __str__(self):
        return self.label


def _factor_label(family, param):
    if family == "I2":
        return f"I2({param})"
    return f"{family}{param}"


def parse_group_spec(text):
    """Parse a group label such as ``A5``, ``I2(7)``, ``U3`` or ``A1xA1``."""
    if not isinstance(text, str) or not text.strip():
        raise SpecError("empty group specification")
    cleaned = text.strip().replace(" ", "")
    factors = []
    pos = 0
    for piece in cleaned.split("x"):
        if not piece:
            raise SpecError(f"empty factor at position {pos} in {text!r}")
        m = _FACTOR_RE.fullmatch(piece.upper())
        if m is None:
            raise SpecError(f"cannot parse factor {piece!r} at position {pos} in {text!r}")
        if m.group(1):
            family, param = m.group(1), int(m.group(2))
        elif m.group(3):
            family, param = "I2", int(m.group(3))
        else:
            family, param = "U", int(m.group(4))
        if not _FAMILY_RULES[family](param):
            raise SpecError(f"unsupported type {piece!r} (rank/order out of range)")
        factors.append((family, param))
        pos += len(piece) + 1
    return GroupSpec(tuple(factors))


def _path_matrix(n, bonds):
    """n x n matrix for a path diagram; bonds[i] = m(i+1, i+2)."""
    out = [[2] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    for i, b in enumerate(bonds):
        out[i][i + 1] = out[i + 1][i] = b
    return out


def _factor_matrix(family, p):
    if family == "A":
        return _path_matrix(p, [3] * (p - 1))
    if family == "B":
        return _path_matrix(p, [3] * (p - 2) + [4])
    if family == "H":
        return _path_matrix(p, [3] * (p - 2) + [5])
    if family == "F":
        return _path_matrix(4, [3, 4, 3])
    if family == "I2":
        return [[1, p], [p, 1]]
    if family == "U":
        return [
            [1 if i == j else INFINITE_BOND for j in range(p)]
            for i in range(p)
        ]
    if family == "D":
        # chain 1..n-2 with both n-1 and n attached to the branch node n-2
        out = _path_matrix(p, [3] * (p - 3) + [3, 2])
        out[p - 3][p - 1] = out[p - 1][p - 3] = 3
        out[p - 2][p - 1] = out[p - 1][p - 2] = 2
        return out
    if family == "E":
        # chain 1-3-4-...-n with node 2 attached to node 4
        out = [[2] * p for _ in range(p)]
        for i in range(p):
            out[i][i] = 1
        chain = [1, 3, 4, 5, 6, 7, 8][: p - 1]
        for a, b in zip(chain, chain[1:]):
            out[a - 1][b - 1] = out[b - 1][a - 1] = 3
        out[1][3] = out[3][1] = 3
        return out
    raise SpecError(f"unknown family {family!r}")


def build_coxeter_matrix(spec):
    """Coxeter matrix for a parsed spec; products become block-diagonal."""
    blocks = [CoxeterMatrix(_factor_matrix(f, p)) for f, p in spec.factors]
    if len(blocks) == 1:
        return blocks[0]
    return CoxeterMatrix.block_diagonal(blocks)


# ---------------------------------------------------------------------------
# Root systems
# ---------------------------------------------------------------------------

def bilinear_form(matrix):
    """The symmetric form <a_i, a_j> = -cos(pi/m_ij), with -1 for m = infinity."""
    n = matrix.rank
    out = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            m = matrix.order(i, j)
            row.append(-1.0 if m == INFINITE_BOND else -math.cos(math.pi / m))
        out.append(tuple(row))
    return tuple(out)


def reflect(form, i, v):
    """Apply the simple reflection i (1-based) to a coefficient vector."""
    row = form[i - 1]
    c = 2.0 * sum(row[j] * v[j] for j in range(len(v)))
    out = list(v)
    out[i - 1] = v[i - 1] - c
    return tuple(out)


def float_keys(a, decimals):
    """Hashable keys of the rows of a float64 array (vectors or matrices).

    A key is the bytes of the row's entries rounded to `decimals` places,
    with -0.0 folded into 0.0.  Every root and matrix key in the package
    comes from here, so a key computed for one row and for a whole layer
    at once agree.
    """
    r = np.round(a, decimals) + 0.0
    r = r.reshape(len(r), math.prod(r.shape[1:]))
    return r.view(np.dtype((np.void, r.itemsize * r.shape[1]))).ravel().tolist()


def vec_positive(v):
    return all(c >= -SIGN_EPS for c in v)


class RootSystem:
    """The roots of a Coxeter group, positive roots first.

    Index p in [0, P) is a positive root; index p + P is its negative.  The
    simple root of generator i sits at index i - 1.
    """

    def __init__(self, matrix, pos_roots, complete):
        self.matrix = matrix
        self.rank = matrix.rank
        self.pos_roots = pos_roots
        self.pos_count = len(pos_roots)
        self.complete = complete
        keys = float_keys(np.array(pos_roots, dtype=float), ROOT_KEY_DECIMALS)
        self._index = dict(zip(keys, range(self.pos_count)))
        if len(self._index) != self.pos_count:
            raise ToleranceError("root key collision while indexing the root system")

    @cached_property
    def supports(self):
        """Bit mask of the simple roots in each positive root's support."""
        eps = 10 ** -(ROOT_KEY_DECIMALS + 1)
        return tuple(
            sum(1 << j for j, c in enumerate(v) if abs(c) > eps)
            for v in self.pos_roots
        )

    def __len__(self):
        return 2 * self.pos_count

    def indices_of(self, vectors):
        """Signed index of each root vector (the rows), or None for a non-root."""
        v = np.asarray(vectors, dtype=float).reshape(-1, self.rank)
        positive = (v >= -SIGN_EPS).all(axis=1)
        keys = float_keys(np.where(positive[:, None], v, -v), ROOT_KEY_DECIMALS)
        P = self.pos_count
        out = []
        for k, pos in zip(keys, positive.tolist()):
            p = self._index.get(k)
            out.append(p if p is None or pos else p + P)
        return out


def _reflect_all(form, roots):
    """Every simple reflection of every root: out[f, i] = r_{i+1} . roots[f].

    The pairing with row i of the form is summed left to right, as in
    `reflect`, so each row is bit-identical to the scalar reflection.
    """
    c = roots[:, 0, None] * form[:, 0]
    for j in range(1, form.shape[0]):
        c = c + roots[:, j, None] * form[:, j]
    out = np.repeat(roots[:, None, :], form.shape[0], axis=1)
    diag = np.arange(form.shape[0])
    out[:, diag, diag] -= 2.0 * c
    return out


def generate_root_system(matrix, max_depth=None, max_roots=2_000_000):
    """Close the simple roots under the simple reflections.

    Each depth reflects the whole frontier by every generator at once; the
    new positive roots keep (frontier root, generator) order, first
    occurrence winning.  `max_depth` bounds the number of reflection
    applications and must be given for infinite groups; without it the
    closure runs until it terminates and a failure to do so raises.
    `complete` is True iff closure terminated before the depth limit.
    """
    form = np.array(bilinear_form(matrix))
    n = matrix.rank
    frontier = np.eye(n)
    layers = [frontier]
    seen = set(float_keys(frontier, ROOT_KEY_DECIMALS))
    count = n
    depth = 0
    hard_cap = max_depth if max_depth is not None else 10_000
    complete = False
    while len(frontier):
        if depth >= hard_cap:
            if max_depth is None:
                raise ToleranceError(
                    "root closure did not terminate; the group is infinite "
                    "(supply max_depth) or the tolerance failed"
                )
            break
        depth += 1
        new = []
        for lo in range(0, len(frontier), CLOSURE_BLOCK):
            cand = _reflect_all(form, frontier[lo : lo + CLOSURE_BLOCK]).reshape(-1, n)
            cand = cand[~(cand <= SIGN_EPS).all(axis=1)]  # only r_i . a_i turns negative
            mixed = ~(cand >= -SIGN_EPS).all(axis=1)
            if mixed.any():
                w = tuple(cand[mixed.argmax()].tolist())
                raise ToleranceError(f"root with mixed signs generated: {w}")
            keep = []
            for c, k in enumerate(float_keys(cand, ROOT_KEY_DECIMALS)):
                if k not in seen:
                    seen.add(k)
                    keep.append(c)
            count += len(keep)
            if count > max_roots:
                raise ToleranceError("root count cap exceeded")
            new.append(cand[keep])
        frontier = np.concatenate(new)
        layers.append(frontier)
    else:
        complete = True
    pos_roots = list(map(tuple, np.concatenate(layers).tolist()))
    return RootSystem(matrix, pos_roots, complete)


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

_SEGMENT_RE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


def parse_word(text):
    """Parse ``[3,2,1]`` or the arrow shorthand ``[1..4]`` / ``[4..1]``.

    Indices are 1-based.  ``a..b`` expands ascending for a <= b and
    descending for a > b; segments may be mixed, e.g. ``[4,1..3]``.
    """
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    letters = []
    for seg in s.split(","):
        m = _SEGMENT_RE.match(seg.strip())
        if m is None:
            raise ValueError(f"cannot parse word segment {seg!r} in {text!r}")
        a = int(m.group(1))
        if m.group(2) is None:
            letters.append(a)
        else:
            b = int(m.group(2))
            step = 1 if b >= a else -1
            letters.extend(range(a, b + step, step))
    if any(l < 1 for l in letters):
        raise ValueError(f"generator indices are 1-based: {text!r}")
    return tuple(letters)


def format_word(word):
    return "[" + ",".join(str(i) for i in word) + "]"


def ascending(i, j):
    """The word [i, i+1, ..., j] (requires i <= j)."""
    return tuple(range(i, j + 1))


def descending(j, i):
    """The word [j, j-1, ..., i] (requires j >= i)."""
    return tuple(range(j, i - 1, -1))


# ---------------------------------------------------------------------------
# Shared word machinery (finite and infinite groups)
# ---------------------------------------------------------------------------

class GeometricGroup:
    """Base for groups acting through the reflection representation."""

    def __init__(self, matrix, spec=None):
        self.matrix = matrix
        self.spec = spec
        self.rank = matrix.rank
        self.form = bilinear_form(matrix)
        self.generators = tuple(range(1, self.rank + 1))

    @property
    def label(self):
        if self.spec is not None:
            return self.spec.label
        return f"custom(rank={self.rank})"

    def _check_letters(self, word):
        for s in word:
            if not 1 <= s <= self.rank:
                raise ValueError(f"generator index {s} out of range 1..{self.rank}")

    # subclasses supply an exact "carrier" for prefix elements:
    # identity, right multiplication by a generator, and the sign of
    # carrier . alpha_s.
    def _carrier_identity(self):
        raise NotImplementedError

    def _carrier_mul_gen(self, carrier, s):
        raise NotImplementedError

    def _carrier_sends_simple_positive(self, carrier, s):
        raise NotImplementedError

    def is_reduced(self, word):
        """True iff the word's length equals the length of its element."""
        self._check_letters(word)
        cur = self._carrier_identity()
        for s in word:
            if not self._carrier_sends_simple_positive(cur, s):
                return False
            cur = self._carrier_mul_gen(cur, s)
        return True

    def reduce_word(self, word):
        """A reduced word for the same element, by repeated deletion.

        Scans for the leftmost position j at which the prefix stops being
        reduced, locates the matching exchange index i < j, deletes both
        letters, and repeats.  Deterministic; idempotent on reduced words.
        """
        self._check_letters(word)
        letters = list(word)
        while True:
            cur = self._carrier_identity()
            bad = None
            for j, s in enumerate(letters):
                if not self._carrier_sends_simple_positive(cur, s):
                    bad = j
                    break
                cur = self._carrier_mul_gen(cur, s)
            if bad is None:
                return tuple(letters)
            beta = tuple(1.0 if k == letters[bad] - 1 else 0.0 for k in range(self.rank))
            hit = None
            for t in range(bad - 1, -1, -1):
                nb = reflect(self.form, letters[t], beta)
                if not vec_positive(nb):
                    hit = t
                    break
                beta = nb
            if hit is None:
                raise ToleranceError("exchange index not found for non-reduced word")
            del letters[bad]
            del letters[hit]


# ---------------------------------------------------------------------------
# Finite Coxeter groups: elements as root permutations
# ---------------------------------------------------------------------------

class Element:
    """A group member, wrapping its permutation of root indices."""

    __slots__ = ("group", "perm")

    def __init__(self, group, perm):
        self.group = group
        self.perm = perm

    def __mul__(self, other):
        if not isinstance(other, Element) or other.group is not self.group:
            return NotImplemented
        return Element(self.group, self.group._mul(self.perm, other.perm))

    def inverse(self):
        return Element(self.group, self.group._inv(self.perm))

    @property
    def length(self):
        return self.group._length(self.perm)

    def n_set(self):
        """Positive-root indices sent negative by this element."""
        bits = self.group._n_bits(self.perm)
        return frozenset(_iter_bits(bits))

    def is_involution(self):
        p = self.perm
        return p != self.group.identity_perm and self.group._mul(p, p) == self.group.identity_perm

    def is_identity(self):
        return self.perm == self.group.identity_perm

    @property
    def word(self):
        """Lexicographically least reduced word."""
        return self.group._lexmin_word(self.perm)

    def descent_sets(self):
        return self.group.descent_sets(self)

    def sort_key(self):
        return (self.length, self.word)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.group is self.group
            and other.perm == self.perm
        )

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return format_word(self.word)


def _iter_bits(bits):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class DnCosetCase:
    """Outcome of the D_n coset-representative classification."""

    case: str        # "i-a", "i-b" or "ii"
    a_word: tuple
    b_word: tuple


class CoxeterGroup(GeometricGroup):
    """A finite Coxeter group with elements as permutations of root indices."""

    def __init__(self, matrix, spec=None):
        super().__init__(matrix, spec)
        self.roots = generate_root_system(matrix)
        if not self.roots.complete:
            raise ToleranceError("root system did not close; group is not finite")
        P = self.roots.pos_count
        if 2 * P > 255:
            raise SpecError(f"too many roots for the packed representation ({2 * P})")
        self.pos_count = P
        self.identity_perm = bytes(range(2 * P))
        self._pad = bytes(256 - 2 * P)
        self._neg = bytes(range(P, 2 * P))  # negative-root indices
        self._sign_digits = b"0" * P + b"1" * (256 - P)  # positive / negative image
        self._nonsimple = bytes(range(self.rank, 256))
        self.gen_perm = {}
        self.gen_table = {}  # padded to 256 for bytes.translate
        images = _reflect_all(np.array(self.form), np.array(self.roots.pos_roots))
        # image[(i - 1) * P + p] is the signed index of r_i . a_p
        image = self.roots.indices_of(images.transpose(1, 0, 2).reshape(-1, self.rank))
        for i in self.generators:
            perm = bytearray(2 * P)
            for p, q in enumerate(image[(i - 1) * P : i * P]):
                if q is None:
                    raise ToleranceError(f"generator {i} escaped the root system")
                perm[p] = q
                perm[p + P] = q + P if q < P else q - P
            self.gen_perm[i] = bytes(perm)
            self.gen_table[i] = bytes(perm) + self._pad
        self._elements = None
        self._involution_perms = None
        self._w0 = None
        lw0 = self.longest_element().length
        if lw0 != P:
            raise ToleranceError(
                f"l(w0) = {lw0} but the root system has {P} positive roots"
            )

    @classmethod
    def from_spec(cls, spec):
        if isinstance(spec, str):
            spec = parse_group_spec(spec)
        if not spec.is_finite:
            raise SpecError(f"{spec.label} is infinite; use the ball explorer")
        return cls(spec.coxeter_matrix(), spec)

    # -- raw permutation layer ------------------------------------------------

    def _mul(self, a, b):
        """Composition a.b, i.e. apply b to a root, then a."""
        return b.translate(a + self._pad)

    def _inv(self, a):
        out = bytearray(len(a))
        for i, v in enumerate(a):
            out[v] = i
        return bytes(out)

    def _n_bits(self, a):
        """N(a) as an int: bit p set iff a sends positive root p negative."""
        return int(a[: self.pos_count].translate(self._sign_digits)[::-1], 2)

    def n_set_words(self, perms):
        """The N-sets of `perms`, packed in one word-major (k, len(perms))
        little-endian uint64 array, k = ceil(|Phi+| / 64): bit p of column v
        across the k words is bit p of `_n_bits(perms[v])`."""
        P = self.pos_count
        a = np.frombuffer(b"".join(perms), dtype=np.uint8).reshape(len(perms), 2 * P)
        packed = np.zeros((len(perms), 8 * -(-P // 64)), dtype=np.uint8)
        packed[:, : -(-P // 8)] = np.packbits(a[:, :P] >= P, axis=1, bitorder="little")
        return np.ascontiguousarray(packed.view("<u8").T)

    def _length(self, a):
        """|N(a)|: the positive roots a sends negative."""
        P = self.pos_count
        return P - len(a[:P].translate(None, self._neg))

    def _left_descents(self, a):
        """0-based indices of the left descents of a, as bytes.

        s is a left descent iff a^-1 sends alpha_s negative, i.e. iff a maps
        some negative root onto alpha_s: the simple indices among a[P:].
        """
        return a[self.pos_count:].translate(None, self._nonsimple)

    def _lexmin_word(self, a):
        out = []
        while a != self.identity_perm:
            s = min(self._left_descents(a)) + 1
            out.append(s)
            a = a.translate(self.gen_table[s])  # left-multiply by r_s
        return tuple(out)

    def _word_perm(self, word):
        acc = self.identity_perm
        for s in word:
            acc = self.gen_perm[s].translate(acc + self._pad)
        return acc

    # -- carriers for the shared word machinery -------------------------------

    def _carrier_identity(self):
        return self.identity_perm

    def _carrier_mul_gen(self, carrier, s):
        return self.gen_perm[s].translate(carrier + self._pad)

    def _carrier_sends_simple_positive(self, carrier, s):
        return carrier[s - 1] < self.pos_count

    # -- public element operations --------------------------------------------

    @property
    def identity(self):
        return Element(self, self.identity_perm)

    def generator(self, i):
        return Element(self, self.gen_perm[i])

    def element_from_word(self, word):
        """The product r_{i1} r_{i2} ... (letters applied left to right)."""
        if isinstance(word, str):
            word = parse_word(word)
        self._check_letters(word)
        return Element(self, self._word_perm(word))

    def descent_sets(self, w):
        """(left, right) descent sets as sets of generator indices."""
        P = self.pos_count
        right = {i for i in self.generators if w.perm[i - 1] >= P}
        left = {i + 1 for i in self._left_descents(w.perm)}
        return left, right

    def longest_element(self):
        """w0, the longest element of the parabolic on every generator."""
        if self._w0 is None:
            self._w0 = self.parabolic_longest(self.generators)
        return self._w0

    def order(self):
        return len(self.enumerate_perms())

    def enumerate_perms(self):
        """All elements of the group, as raw permutations (cached)."""
        if self._elements is None:
            P = self.pos_count
            seen = {self.identity_perm}
            frontier = [self.identity_perm]
            while frontier:
                nxt = []
                for w in frontier:
                    wt = w + self._pad
                    for i in self.generators:
                        if w[i - 1] < P:  # length-increasing extension only
                            u = self.gen_perm[i].translate(wt)
                            if u not in seen:
                                seen.add(u)
                                nxt.append(u)
                frontier = nxt
            self._elements = seen
        return self._elements

    def elements(self):
        return [Element(self, p) for p in self.enumerate_perms()]

    def involution_perms(self, limit=None):
        """The non-identity involutions, as a tuple of raw permutations (cached).

        Walks up from the identity with the ascending twisted-involution step
        (Richardson-Springer): for an involution x and a generator s with
        l(sx) > l(x), the next involution is sx when s and x commute and sxs
        otherwise.  Every involution is reached, and nothing else is visited.
        An ascent s commutes with x exactly when x fixes alpha_s.  The tuple
        is in discovery order (frontier order, then generator order), so it
        is the same in every run.

        With a `limit`, raises SpecError as soon as the walk finds more than
        `limit` involutions, so a group too large for the caller is refused
        without being walked whole.
        """
        too_many = f"{self.label} has more than {limit} involutions"
        perms = self._involution_perms
        if perms is None:
            P = self.pos_count
            cap = math.inf if limit is None else limit
            seen = {self.identity_perm}
            found = []
            frontier = [self.identity_perm]
            while frontier:
                start = len(found)
                for x in frontier:
                    for i in self.generators:
                        image = x[i - 1]
                        if image >= P:  # descent: sx is shorter
                            continue
                        y = x.translate(self.gen_table[i])  # sx
                        if image != i - 1:
                            y = self.gen_perm[i].translate(y + self._pad)  # sxs
                        if y not in seen:
                            seen.add(y)
                            found.append(y)
                            if len(found) > cap:
                                raise SpecError(too_many)
                frontier = found[start:]
            self._involution_perms = perms = tuple(found)
        elif limit is not None and len(perms) > limit:
            raise SpecError(too_many)
        return perms

    # -- parabolic subgroups and coset representatives -------------------------

    def _check_parabolic(self, J):
        J = frozenset(J)
        for j in J:
            if not 1 <= j <= self.rank:
                raise ValueError(f"generator index {j} out of range")
        return J

    def in_parabolic(self, w, J):
        """Membership in W_J, via N(w) lying inside the J-supported roots."""
        J = self._check_parabolic(J)
        jmask = sum(1 << (j - 1) for j in J)
        bits = self._n_bits(w.perm)
        for p in _iter_bits(bits):
            if self.roots.supports[p] & ~jmask:
                return False
        return True

    def coset_representatives(self, J, side="right"):
        """Distinguished coset representatives of W_J.

        ``right`` gives X_J = {w : l(sw) > l(w) for all s in J}; ``left``
        gives the inverse set.
        """
        J = self._check_parabolic(J)
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        P = self.pos_count
        reps = {self.identity_perm}
        frontier = [self.identity_perm]
        while frontier:
            nxt = []
            for x in frontier:
                xt = x + self._pad
                for i in self.generators:
                    if x[i - 1] < P:
                        y = self.gen_perm[i].translate(xt)
                        if y in reps:
                            continue
                        desc = self._left_descents(y)
                        if not any(j - 1 in desc for j in J):
                            reps.add(y)
                            nxt.append(y)
            frontier = nxt
        out = [Element(self, p) for p in reps]
        if side == "left":
            out = [e.inverse() for e in out]
        return sorted(out, key=Element.sort_key)

    def parabolic_longest(self, J):
        """Longest element of the standard parabolic W_J (greedy ascent)."""
        J = sorted(self._check_parabolic(J))
        P = self.pos_count
        a = self.identity_perm
        while True:
            s = next((i for i in J if a[i - 1] < P), None)
            if s is None:
                return Element(self, a)
            a = self.gen_perm[s].translate(a + self._pad)

    def classify_dn_coset_rep(self, x, n=None):
        """Which reduced factorization x = a.b a D_n coset representative has.

        x must be a non-identity member of X_J for J = R \\ {r_n}.  Returns a
        :class:`DnCosetCase`: case "i-a" has a = [n], case "i-b" has
        a = [n, n-2, n-1], both with b inside the parabolic on {1..n-2};
        case "ii" has a = [n, n-2, n-3, n-1, n-2, n] with unconstrained b.
        """
        if self.spec is None or self.spec.factors != (("D", self.rank),):
            raise SpecError("classification applies to groups of type D_n")
        n = self.rank if n is None else n
        if n != self.rank:
            raise ValueError("rank argument disagrees with the group")
        J = frozenset(range(1, n))
        if x.is_identity():
            raise ValueError("x must be a non-identity coset representative")
        desc = self._left_descents(x.perm)
        if any(j - 1 in desc for j in J):
            raise ValueError("x is not a minimal right coset representative for J")
        K = frozenset(range(1, n - 1))
        lx = x.length
        candidates = [
            ("i-a", (n,), True),
            ("i-b", (n, n - 2, n - 1), True),
            ("ii", (n, n - 2, n - 3, n - 1, n - 2, n), False),
        ]
        for case, a_word, need_k in candidates:
            if lx < len(a_word):
                continue
            a = self.element_from_word(a_word)
            b = a.inverse() * x
            if b.length != lx - len(a_word):
                continue
            if need_k and not self.in_parabolic(b, K):
                continue
            return DnCosetCase(case, a_word, b.word)
        raise ToleranceError(f"coset representative {x!r} matches no case")
