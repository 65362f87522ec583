"""Core group machinery: specs, roots, words, lengths, cosets."""

import json

import numpy as np
import pytest

from e0graph import coxeter
from e0graph.coxeter import (
    CoxeterGroup,
    CoxeterMatrix,
    SpecError,
    ToleranceError,
    ascending,
    descending,
    format_word,
    generate_root_system,
    negative,
    parse_group_spec,
    parse_word,
    reflect,
)
from e0graph.verify import SUITE


# ---------------------------------------------------------------------------
# specs and matrices
# ---------------------------------------------------------------------------

def test_parse_simple_labels():
    assert parse_group_spec("A3").factors == (("A", 3),)
    assert parse_group_spec("I2(7)").factors == (("I2", 7),)
    assert parse_group_spec("U3").factors == (("U", 3),)
    assert parse_group_spec("U(3)").factors == (("U", 3),)
    assert parse_group_spec("a1 x a1").factors == (("A", 1), ("A", 1))
    assert parse_group_spec("A1xA1").label == "A1xA1"


@pytest.mark.parametrize("bad", ["D3", "B1", "E5", "H2", "I2(2)", "U1", "Q3", "", "A3x"])
def test_parse_rejects(bad):
    with pytest.raises(SpecError):
        parse_group_spec(bad)


def test_orders():
    assert parse_group_spec("A3").order() == 24
    assert parse_group_spec("B4").order() == 384
    assert parse_group_spec("D7").order() == 322560
    assert parse_group_spec("F4").order() == 1152
    assert parse_group_spec("A2xA2").order() == 36
    assert parse_group_spec("U2").order() is None


def test_matrix_entries():
    assert parse_group_spec("A2").coxeter_matrix().order(1, 2) == 3
    assert parse_group_spec("I2(7)").coxeter_matrix().order(1, 2) == 7
    m = parse_group_spec("B4").coxeter_matrix()
    assert m.order(3, 4) == 4 and m.order(2, 3) == 3
    m = parse_group_spec("F4").coxeter_matrix()
    assert m.order(2, 3) == 4 and m.order(1, 2) == 3 and m.order(3, 4) == 3
    m = parse_group_spec("H3").coxeter_matrix()
    assert m.order(2, 3) == 5 and m.order(1, 2) == 3
    m = parse_group_spec("H4").coxeter_matrix()
    assert m.order(3, 4) == 5


def test_d4_branch_node():
    # r4 hangs off the branch node r2, away from r3
    m = parse_group_spec("D4").coxeter_matrix()
    assert m.order(2, 4) == 3
    assert m.order(3, 4) == 2
    assert m.order(1, 4) == 2


def test_e6_branch_node():
    m = parse_group_spec("E6").coxeter_matrix()
    assert m.order(2, 4) == 3
    assert m.order(1, 3) == 3 and m.order(3, 4) == 3
    assert m.order(1, 2) == 2


def test_product_block_matrix():
    m = parse_group_spec("A1xA1").coxeter_matrix()
    assert m.order(1, 2) == 2
    m = parse_group_spec("A2xA2").coxeter_matrix()
    assert m.order(2, 3) == 2 and m.order(1, 2) == 3 and m.order(3, 4) == 3


def test_matrix_validation():
    with pytest.raises(SpecError):
        CoxeterMatrix([[1, 3], [4, 1]])  # not symmetric
    with pytest.raises(SpecError):
        CoxeterMatrix([[2, 3], [3, 1]])  # bad diagonal
    with pytest.raises(SpecError):
        CoxeterMatrix([[1, 1], [1, 1]])  # off-diagonal below 2
    for bad in (3.7, None, "3"):  # int() read 3.7 as 3 and "3" as 3
        with pytest.raises(SpecError, match="must be integers"):
            CoxeterMatrix([[1, bad], [bad, 1]])
    assert CoxeterMatrix([[1, np.int64(3)], [3, 1]]).order(1, 2) == 3


def test_matrix_json_roundtrip(tmp_path):
    path = tmp_path / "afftilde.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, 0], [0, 1]]}))
    m = CoxeterMatrix.from_json_file(str(path))
    assert not m.is_finite
    assert m.order(1, 2) == 0


# ---------------------------------------------------------------------------
# root systems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,pos", [("A3", 6), ("A1xA1", 2), ("H3", 15),
                                       ("B2", 4), ("D4", 12), ("F4", 24)])
def test_positive_root_counts(label, pos):
    g = CoxeterGroup.from_spec(label)
    assert g.pos_count == pos
    assert g.longest_element().length == pos  # l(w0) = |Phi+|
    assert len(g.roots) == 2 * pos


def test_w0_length_guard(monkeypatch):
    # a spurious zero "root" is fixed by every generator, so w0 cannot send it
    # negative and l(w0) falls one short of |Phi+|
    real = coxeter.generate_root_system

    def padded(matrix):
        rs = real(matrix)
        extra = rs.pos_roots + [(0.0,) * matrix.rank]
        return coxeter.RootSystem(matrix, extra, rs.complete)

    monkeypatch.setattr(coxeter, "generate_root_system", padded)
    with pytest.raises(ToleranceError, match=r"l\(w0\) = 3 but .* 4 positive"):
        CoxeterGroup.from_spec("A2")


def test_involution_walk_stops_at_limit():
    class Counting(dict):
        lookups = 0

        def __getitem__(self, key):
            Counting.lookups += 1
            return super().__getitem__(key)

    g = CoxeterGroup.from_spec("A5")
    g.gen_table = Counting(g.gen_table)
    assert len(g.involution_perms()) == 75
    full = Counting.lookups
    g = CoxeterGroup.from_spec("A5")
    g.gen_table = Counting(g.gen_table)
    Counting.lookups = 0
    with pytest.raises(SpecError, match="A5 has more than 10 involutions"):
        g.involution_perms(limit=10)
    # at most the identity and 10 involutions were stepped from, 5 steps each
    assert Counting.lookups <= 11 * 5 < full
    assert len(g.involution_perms(limit=75)) == 75


def test_infinite_closure_needs_depth():
    m = parse_group_spec("U2").coxeter_matrix()
    with pytest.raises(ToleranceError):
        generate_root_system(m, max_depth=None, max_roots=500)
    rs = generate_root_system(m, max_depth=5)
    assert not rs.complete
    assert rs.pos_count == 12  # two simple roots plus two new per depth step


@pytest.mark.parametrize("matrix,depth", [
    *((parse_group_spec(label).coxeter_matrix(), None) for label in
      ["A7", "B6", "D7", "F4", "H3", "H4", "E6", "E7", "E8", "I2(7)", "B2xB2xB2xB2xB2"]),
    (CoxeterMatrix([[1, 3, 7], [3, 1, 3], [7, 3, 1]]), 20),
    (CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]]), 30),
    (parse_group_spec("U3").coxeter_matrix(), 10),
], ids=["A7", "B6", "D7", "F4", "H3", "H4", "E6", "E7", "E8", "I2(7)", "B2^5",
        "337", "A2~", "U3"])
def test_root_coefficient_sums_have_a_margin_of_one(matrix, depth):
    # 1 = B(beta, beta) <= (sum of coefficients)^2 for every root beta
    roots = np.array(generate_root_system(matrix, max_depth=depth).pos_roots)
    assert roots.sum(axis=1).min() >= 1.0
    assert not negative(roots).any()
    for v in (roots, -roots):  # the sum rule agrees with the entry rule
        assert np.array_equal(negative(v), ~(v >= -coxeter.SIGN_EPS).all(axis=1))


# affine and hyperbolic matrices, each with a depth at which its root closure
# is still open and under the root cap (the roots of U3 double per depth)
INFINITE_CLOSURE_DEPTHS = {
    "U2": (parse_group_spec("U2").coxeter_matrix().entries, 20),
    "U3": (parse_group_spec("U3").coxeter_matrix().entries, 10),
    "A2~": ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], 20),
    "C2~": ([[1, 4, 2], [4, 1, 4], [2, 4, 1]], 20),
    "G2~": ([[1, 6, 2], [6, 1, 3], [2, 3, 1]], 20),
    "A3~": ([[1, 3, 2, 3], [3, 1, 3, 2], [2, 3, 1, 3], [3, 2, 3, 1]], 20),
    "237": ([[1, 2, 3], [2, 1, 7], [3, 7, 1]], 20),
    "337": ([[1, 3, 7], [3, 1, 3], [7, 3, 1]], 20),
    "23inf": ([[1, 2, 3], [2, 1, 0], [3, 0, 1]], 20),
    "A1xA2~": ([[1, 2, 2, 2], [2, 1, 3, 3], [2, 3, 1, 3], [2, 3, 3, 1]], 20),
}
FINITE_LABELS = SUITE + ("E7", "E8", "H4", "B2xB2xB2xB2xB2", "A15")


@pytest.mark.parametrize("matrix,depth", [
    *((parse_group_spec(label).coxeter_matrix(), 32) for label in FINITE_LABELS),
    *((CoxeterMatrix(entries), depth) for entries, depth in INFINITE_CLOSURE_DEPTHS.values()),
], ids=[*FINITE_LABELS, *INFINITE_CLOSURE_DEPTHS])
def test_is_finite_matches_the_root_closure(matrix, depth):
    # the independent method: a finite closure ends by depth 32, since E8's
    # highest root has height 29, and an infinite one never ends
    assert matrix.is_finite == generate_root_system(matrix, max_depth=depth).complete


def reference_closure(matrix, max_depth):
    """Scalar BFS over the roots: one reflection and one rounded key at a time."""
    form = coxeter.bilinear_form(matrix)
    n = matrix.rank
    roots = [tuple(float(i == j) for j in range(n)) for i in range(n)]
    seen = {tuple(round(c, 6) + 0.0 for c in v) for v in roots}
    frontier = list(roots)
    for _ in range(max_depth):
        nxt = []
        for v in frontier:
            for i in range(1, n + 1):
                w = reflect(form, i, v)
                if all(c <= 1e-9 for c in w):
                    continue
                k = tuple(round(c, 6) + 0.0 for c in w)
                if k not in seen:
                    seen.add(k)
                    nxt.append(w)
        roots += nxt
        frontier = nxt
    return roots, not frontier


@pytest.mark.parametrize(
    "label,depth",
    [(label, 64) for label in SUITE + ("H4", "E7", "E8")] + [("U4", 8)],
)
def test_closure_matches_scalar_reference(label, depth):
    m = parse_group_spec(label).coxeter_matrix()
    roots, complete = reference_closure(m, depth)
    rs = generate_root_system(m, max_depth=depth)
    assert rs.pos_roots == roots  # the same roots, in the same order
    assert rs.complete == complete


def test_closure_rejects_mixed_signs(monkeypatch):
    # a form scaled by 3 reflects a_1 off the root cone for A2
    real = coxeter.bilinear_form
    monkeypatch.setattr(
        coxeter, "bilinear_form",
        lambda m: tuple(tuple(3 * c for c in row) for row in real(m)),
    )
    with pytest.raises(ToleranceError, match="mixed signs"):
        generate_root_system(parse_group_spec("A2").coxeter_matrix())


def test_generator_action_is_sign_compatible_permutation():
    g = CoxeterGroup.from_spec("B3")
    P = g.pos_count
    for i in g.generators:
        perm = g.gen_perm[i]
        assert sorted(perm) == list(range(2 * P))
        for p in range(P):
            q = perm[p]
            qn = perm[p + P]
            assert (q + P) % (2 * P) == qn or q - P == qn  # negation-compatible


# ---------------------------------------------------------------------------
# words and elements
# ---------------------------------------------------------------------------

def test_parse_word_forms():
    assert parse_word("[3,2,1]") == (3, 2, 1)
    assert parse_word("[1..4]") == (1, 2, 3, 4)
    assert parse_word("[4..1]") == (4, 3, 2, 1)
    assert parse_word("[4,1..3]") == (4, 1, 2, 3)
    assert parse_word("[]") == ()
    assert parse_word("2,5") == (2, 5)
    assert format_word((1, 2, 3)) == "[1,2,3]"
    assert ascending(2, 4) == (2, 3, 4)
    assert descending(4, 2) == (4, 3, 2)
    with pytest.raises(ValueError):
        parse_word("[0,1]")


def test_element_from_word_identity_and_generator():
    g = CoxeterGroup.from_spec("A2")
    assert g.element_from_word([]).is_identity()
    r1 = g.element_from_word([1])
    P = g.pos_count
    assert r1.perm[0] == P  # alpha_1 goes to -alpha_1
    assert r1.is_involution()


def test_braid_relation():
    g = CoxeterGroup.from_spec("A2")
    assert g.element_from_word([1, 2, 1]) == g.element_from_word([2, 1, 2])


def test_n_set_examples():
    g = CoxeterGroup.from_spec("A3")
    assert g.identity.n_set() == frozenset()
    for i in g.generators:
        assert g.generator(i).n_set() == frozenset([i - 1])
    w0 = g.longest_element()
    assert w0.n_set() == frozenset(range(g.pos_count))


def test_length_examples():
    g = CoxeterGroup.from_spec("A3")
    assert g.identity.length == 0
    assert g.longest_element().length == 6
    b2 = CoxeterGroup.from_spec("I2(4)")
    assert b2.element_from_word([1, 2, 1, 2]).length == 4


def test_is_reduced():
    g = CoxeterGroup.from_spec("A2")
    assert not g.is_reduced((1, 1))
    assert g.is_reduced((1, 2, 1))
    assert not g.is_reduced((1, 2, 1, 2))


def _bfs_word_lengths(group):
    """Independent oracle: Cayley-graph BFS distance from the identity."""
    dist = {group.identity_perm: 0}
    frontier = [group.identity_perm]
    while frontier:
        nxt = []
        for w in frontier:
            for i in group.generators:
                u = group._mul(w, group.gen_perm[i])
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def test_reduce_word_examples():
    g = CoxeterGroup.from_spec("A2")
    assert g.reduce_word((1, 1)) == ()
    # brute force: r1 r2 r1 r2 is the rotation r2 r1 (length 2, not a
    # reflection), so its reduced form has two letters
    word = g.reduce_word((1, 2, 1, 2))
    elem = g.element_from_word((1, 2, 1, 2))
    dist = _bfs_word_lengths(g)
    assert g.element_from_word(word) == elem
    assert len(word) == dist[elem.perm] == 2
    assert word == (2, 1)
    # idempotence on anything already reduced
    assert g.reduce_word(word) == word
    assert g.reduce_word((1, 2, 1)) == (1, 2, 1)


@pytest.mark.parametrize("label", ["A3", "B3", "H3", "I2(7)", "A1xA1", "F4"])
def test_length_equals_bfs_word_length(label):
    # l(w) is the true minimal letter count, checked against Cayley BFS
    g = CoxeterGroup.from_spec(label)
    dist = _bfs_word_lengths(g)
    assert len(dist) == g.order()
    for perm, d in dist.items():
        assert g._length(perm) == d


def test_descent_sets():
    g = CoxeterGroup.from_spec("A3")
    assert g.descent_sets(g.identity) == (set(), set())
    w0 = g.longest_element()
    R = set(g.generators)
    assert g.descent_sets(w0) == (R, R)
    r2 = g.generator(2)
    assert g.descent_sets(r2) == ({2}, {2})


def test_longest_element_examples():
    a1 = CoxeterGroup.from_spec("A1")
    assert a1.longest_element() == a1.generator(1)
    a3 = CoxeterGroup.from_spec("A3")
    w0 = a3.longest_element()
    assert w0.length == 6 and w0.is_involution()
    # conjugation by w0 swaps r1 and r3 and fixes r2
    for i, j in [(1, 3), (3, 1), (2, 2)]:
        assert w0 * a3.generator(i) * w0 == a3.generator(j)
    b2 = CoxeterGroup.from_spec("I2(4)")
    w0 = b2.longest_element()
    assert w0 == b2.element_from_word([1, 2, 1, 2])
    for x in b2.elements():
        assert w0 * x == x * w0  # central


def test_lemma_length_formulas():
    import random

    rng = random.Random(7)
    g = CoxeterGroup.from_spec("B3")
    elements = [p for p in sorted(g.enumerate_perms())]
    from e0graph.coxeter import Element

    for _ in range(300):
        x = Element(g, rng.choice(elements))
        y = Element(g, rng.choice(elements))
        overlap = len(x.n_set() & y.inverse().n_set())
        assert (x * y).length == x.length + y.length - 2 * overlap
        r = g.generator(rng.choice(g.generators))
        assert abs((x * r).length - x.length) == 1


# ---------------------------------------------------------------------------
# coset representatives
# ---------------------------------------------------------------------------

def test_coset_reps_full_parabolic_and_identity():
    g = CoxeterGroup.from_spec("A3")
    reps = g.coset_representatives(set(g.generators))
    assert len(reps) == 1 and reps[0].is_identity()


def test_coset_reps_a2_brute_force():
    g = CoxeterGroup.from_spec("A2")
    reps = set(g.coset_representatives({1}))
    # oracle: minimal-length member of each right coset W_J w over all six
    # elements
    from e0graph.coxeter import Element

    w_j = {g.identity, g.generator(1)}
    best = {}
    for p in g.enumerate_perms():
        w = Element(g, p)
        coset = frozenset((y * w).perm for y in w_j)
        cur = best.get(coset)
        if cur is None or w.length < cur.length:
            best[coset] = w
    assert reps == set(best.values())
    assert reps == {g.element_from_word(w) for w in [(), (2,), (2, 1)]}


def test_coset_reps_d4_golden():
    g = CoxeterGroup.from_spec("D4")
    reps = set(g.coset_representatives({1, 2, 3}))
    words = [(), (4,), (4, 2), (4, 2, 1), (4, 2, 3), (4, 2, 1, 3),
             (4, 2, 1, 3, 2), (4, 2, 1, 3, 2, 4)]
    assert reps == {g.element_from_word(w) for w in words}


def test_coset_reps_left_side_is_inverse_set():
    g = CoxeterGroup.from_spec("B3")
    right = set(g.coset_representatives({1, 2}))
    left = set(g.coset_representatives({1, 2}, side="left"))
    assert left == {x.inverse() for x in right}


@pytest.mark.parametrize("label,J", [("A3", {1, 3}), ("B3", {2, 3}), ("D4", {1, 2, 3})])
def test_coset_factorization_lengths_add(label, J):
    from e0graph.coxeter import Element

    g = CoxeterGroup.from_spec(label)
    reps = g.coset_representatives(J)
    # |W| = |W_J| * |X_J|: count W_J by enumerating elements inside the parabolic
    wj = [p for p in g.enumerate_perms() if g.in_parabolic(Element(g, p), J)]
    assert len(wj) * len(reps) == g.order()


def test_classify_dn_examples():
    g = CoxeterGroup.from_spec("D4")
    c = g.classify_dn_coset_rep(g.element_from_word([4]))
    assert c.case == "i-a" and c.a_word == (4,) and c.b_word == ()
    c = g.classify_dn_coset_rep(g.element_from_word([4, 2, 1, 3, 2, 4]))
    assert c.case == "ii"
    x = g.element_from_word([4, 2, 1])
    c = g.classify_dn_coset_rep(x)
    assert c.case == "i-a" and c.a_word == (4,)
    a, b = g.element_from_word(c.a_word), g.element_from_word(c.b_word)
    assert a * b == x and a.length + b.length == x.length
    assert g.in_parabolic(b, {1, 2})


def test_classify_dn_rejects_non_representatives():
    g = CoxeterGroup.from_spec("D4")
    with pytest.raises(ValueError):
        g.classify_dn_coset_rep(g.identity)
    with pytest.raises(ValueError):
        g.classify_dn_coset_rep(g.generator(1))  # has a left descent in J
    a3 = CoxeterGroup.from_spec("A3")
    with pytest.raises(SpecError):
        a3.classify_dn_coset_rep(a3.generator(1))


def test_parabolic_longest():
    g = CoxeterGroup.from_spec("B3")
    x = g.parabolic_longest({1, 2})
    assert x.length == 3  # the A2 parabolic
    assert g.descent_sets(x)[1] >= {1, 2}
