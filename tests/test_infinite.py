"""Ball exploration of infinite groups and the diameter evidence."""

import numpy as np
import pytest

from e0graph import infinite
from e0graph.coxeter import CoxeterMatrix, SpecError, ToleranceError, parse_group_spec
from e0graph.infinite import (
    InfiniteCoxeterGroup,
    ball_graph_diameter_evidence,
    enumerate_ball,
    product_diameter_check,
    universal_neighborhood,
)


def u(n):
    return InfiniteCoxeterGroup.from_spec(f"U{n}")


def words(elems):
    return {e.word for e in elems}


H337 = CoxeterMatrix([[1, 3, 7], [3, 1, 3], [7, 3, 1]])
AFFINE_A2 = CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])


def reference_ball(group, radius):
    """Scalar BFS: the words of the ball in (length, word) order, and the
    words of its involutions.

    Matrices are tuples multiplied by full O(n^3) sums, deduplicated on
    Python-rounded entries; w is an involution when w^2 is within 1e-6 of 1.
    """
    n = group.rank
    form = group.form

    def mul(A, B):
        return tuple(
            tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    def key(M):
        return tuple(round(x, 6) + 0.0 for row in M for x in row)

    one = tuple(tuple(float(i == j) for j in range(n)) for i in range(n))
    gens = [
        tuple(
            tuple(float(i == j) - (2.0 * form[s][j] if i == s else 0.0)
                  for j in range(n))
            for i in range(n)
        )
        for s in range(n)
    ]
    seen = {key(one)}
    frontier = [((), one)]
    out = [((), one)]
    for _ in range(radius):
        nxt = []
        for word, M in frontier:
            for s in range(n):
                if any(M[i][s] < -1e-9 for i in range(n)):
                    continue
                P = mul(M, gens[s])
                if key(P) not in seen:
                    seen.add(key(P))
                    nxt.append((word + (s + 1,), P))
        out += nxt
        frontier = nxt
    invs = {
        w for w, M in out
        if w and all(abs(x - y) <= 1e-6 for r, o in zip(mul(M, M), one)
                     for x, y in zip(r, o))
    }
    return [w for w, _ in out], invs


@pytest.mark.parametrize("group,radius", [
    (u(3), 8),
    (InfiniteCoxeterGroup(H337), 12),
    (InfiniteCoxeterGroup(AFFINE_A2), 12),
    (InfiniteCoxeterGroup.from_spec("U3xU3"), 4),
    (InfiniteCoxeterGroup(parse_group_spec("B3").coxeter_matrix()), 12),
], ids=["U3", "337", "A2~", "U3xU3", "B3"])
def test_ball_matches_scalar_reference(group, radius):
    ball = enumerate_ball(group, radius)
    ref_words, ref_invs = reference_ball(group, radius)
    assert [e.word for e in ball.elements] == ref_words
    assert [e.word for e in ball.involutions()] == [w for w in ref_words
                                                   if w in ref_invs]


@pytest.mark.parametrize("group,radius,size", [
    (u(3), 12, lambda r: 1 + 3 * (2 ** r - 1)),
    (u(4), 8, lambda r: 1 + 4 * (3 ** r - 1) // 2),
    (InfiniteCoxeterGroup(AFFINE_A2), 30, lambda r: 1 + 3 * r * (r + 1) // 2),
], ids=["U3", "U4", "A2~"])
def test_ball_growth_series(group, radius, size):
    # U_n: 1 + n * sum_k (n-1)^(k-1); affine A2: 1 + 3r(r+1)/2
    ball = enumerate_ball(group, radius)
    lengths = [e.length for e in ball.elements]
    assert lengths == sorted(lengths)
    for r in range(radius + 1):
        assert lengths.count(r) == size(r) - (size(r - 1) if r else 0)
    assert len(ball) == size(radius)


def test_involutions_match_exact_oracle():
    for group, radius in [(InfiniteCoxeterGroup(H337), 8),
                          (InfiniteCoxeterGroup(AFFINE_A2), 8),
                          (InfiniteCoxeterGroup.from_spec("U2xU2"), 4)]:
        ball = enumerate_ball(group, radius)
        exact = [e for e in ball.elements
                 if e.word and group.reduce_word(e.word + e.word) == ()]
        assert ball.involutions() == exact
        assert all(e.is_involution() for e in exact)


def test_large_entry_involutions_are_kept():
    # entries reach 2.2e4 at radius 20, so M^2 - 1 deviates by about 1e-7
    # for these four; their keys still equal their inverses' keys
    group = InfiniteCoxeterGroup(H337)
    ball = enumerate_ball(group, 20)
    assert len(ball) == 70690
    assert len(ball.involutions()) == 347
    found = {e.word for e in ball.involutions()}
    for w in [(1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 3, 2, 1, 3, 2, 1, 3, 2, 1),
              (1, 3, 1, 2, 3, 1, 3, 2, 1, 3, 1, 2, 3, 1, 3, 2, 1, 3, 1),
              (3, 1, 3, 2, 1, 3, 1, 2, 3, 1, 3, 2, 1, 3, 1, 2, 3, 1, 3),
              (3, 2, 1, 3, 2, 1, 3, 2, 1, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3)]:
        assert group.reduce_word(w + w) == ()
        assert w in found
        assert group.element_from_word(w).is_involution()


def test_ball_matrices_match_single_element_path():
    group = InfiniteCoxeterGroup(H337)
    ball = enumerate_ball(group, 10)
    for e in ball.elements:
        single = group.element_from_word(e.word)
        assert np.array_equal(single.mat, e.mat)  # bit for bit
        assert single.key == e.key and ball.by_key[single.key] is e


def test_ball_builds_roots_on_demand():
    group = u(3)
    ball = enumerate_ball(group, 6)
    assert not group._roots_by_depth
    x = ball.involutions()[0]
    assert ball.n_bits(x) == 1 << (x.word[0] - 1)
    assert list(group._roots_by_depth) == [6]


def test_key_collision_aborts(monkeypatch):
    # same layer: every second word for an element now counts as a collision
    monkeypatch.setattr(infinite, "MATRIX_COLLISION_TOL", -1.0)
    with pytest.raises(ToleranceError, match="collision"):
        enumerate_ball(InfiniteCoxeterGroup(AFFINE_A2), 3)
    monkeypatch.undo()
    # earlier layer: with one key for every matrix, r_1 lands on the identity
    monkeypatch.setattr(infinite, "_mat_keys", lambda mats: [b""] * len(mats))
    with pytest.raises(ToleranceError, match="collision"):
        enumerate_ball(u(3), 1)


def test_infinite_dihedral_ball_counts():
    grp = u(2)
    ball = enumerate_ball(grp, 3)
    assert words(ball.elements) == {(), (1,), (2,), (1, 2), (2, 1),
                                    (1, 2, 1), (2, 1, 2)}
    for L in range(9):
        assert len(enumerate_ball(grp, L)) == 2 * L + 1


def test_u3_ball_counts():
    # words with no adjacent repeats: 1 + 3 + 6 at radius 2
    assert len(enumerate_ball(u(3), 2)) == 10


def test_finite_matrix_ball_saturates():
    grp = InfiniteCoxeterGroup(parse_group_spec("A2").coxeter_matrix())
    assert len(enumerate_ball(grp, 3)) == 6
    assert len(enumerate_ball(grp, 10)) == 6


def test_ball_closed_under_inverse():
    ball = enumerate_ball(u(3), 4)
    ks = {e.key for e in ball.elements}
    assert all(e.inverse().key in ks for e in ball.elements)


def test_involutions_are_alternating_palindromes():
    ball = enumerate_ball(u(2), 3)
    assert words(ball.involutions()) == {(1,), (2,), (1, 2, 1), (2, 1, 2)}
    ball3 = enumerate_ball(u(3), 3)
    for e in ball3.involutions():
        w = e.word
        assert w == w[::-1]
        assert all(a != b for a, b in zip(w, w[1:]))


def test_u2_and_affine_dihedral_coincide():
    m = CoxeterMatrix([[1, 0], [0, 1]])
    direct = InfiniteCoxeterGroup(m)
    assert words(enumerate_ball(direct, 4).elements) == \
        words(enumerate_ball(u(2), 4).elements)


def test_universal_neighborhood_examples():
    grp = u(2)
    ball = enumerate_ball(grp, 3)
    r = grp.element_from_word((1,))
    assert words(universal_neighborhood(r, ball)) == {(2,), (2, 1, 2)}
    rsr = grp.element_from_word((1, 2, 1))
    assert words(universal_neighborhood(rsr, ball)) == {(2,), (2, 1, 2)}
    grp3 = u(3)
    ball3 = enumerate_ball(grp3, 1)
    r1 = grp3.element_from_word((1,))
    assert words(universal_neighborhood(r1, ball3)) == {(2,), (3,)}


def test_universal_neighborhood_matches_direct_adjacency():
    for n, L in [(2, 6), (3, 4)]:
        grp = u(n)
        ball = enumerate_ball(grp, L)
        invs = ball.involutions()
        for x in invs:
            rule = words(universal_neighborhood(x, ball))
            direct = {z.word for z in invs
                      if z.key != x.key and ball.is_adjacent(x, z)}
            assert rule == direct


def test_universal_neighborhood_needs_universal_group():
    m = CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    grp = InfiniteCoxeterGroup(m)
    ball = enumerate_ball(grp, 3)
    x = grp.element_from_word((1,))
    with pytest.raises(SpecError):
        universal_neighborhood(x, ball)


def test_dihedral_families_share_neighbourhoods():
    # involutions split into words ending in 1 and words ending in 2; each
    # member of one family is adjacent to exactly the other family
    grp = u(2)
    ball = enumerate_ball(grp, 7)
    invs = ball.involutions()
    fam = {1: [x for x in invs if x.word[-1] == 1],
           2: [x for x in invs if x.word[-1] == 2]}
    for last, members in fam.items():
        other = fam[3 - last]
        for x in members:
            nbrs = {z.word for z in invs if z.key != x.key and ball.is_adjacent(x, z)}
            assert nbrs == {z.word for z in other}


def test_ball_involutions_touch_generators():
    # any involution of length <= L-1 is adjacent to some generator
    for grp, L in [(u(2), 6), (u(3), 5)]:
        ball = enumerate_ball(grp, L)
        gens = [grp.element_from_word((i,)) for i in grp.generators]
        for x in ball.involutions():
            if x.length <= L - 1:
                assert any(ball.is_adjacent(x, g) for g in gens if g.key != x.key)


def test_ball_degrees_monotone_in_radius():
    grp = u(3)
    small = enumerate_ball(grp, 4)
    big = enumerate_ball(grp, 5)
    for x in small.involutions():
        x_big = big.by_key[x.key]
        assert big.degree_within(x_big) >= small.degree_within(x)


def test_nset_depth_escape_detected():
    grp = u(2)
    ball = enumerate_ball(grp, 2)
    deep = grp.element_from_word((1, 2, 1, 2, 1, 2, 1))
    with pytest.raises(ToleranceError):
        ball.n_bits(deep)


def test_stored_words_are_reduced():
    grp = u(2)
    e = grp.element_from_word((1, 1, 2, 2, 1))
    assert e.word == (1,)
    prod = grp.element_from_word((1, 2)) * grp.element_from_word((2, 1))
    assert prod.word == ()


def test_block_product_letters_commute():
    grp = InfiniteCoxeterGroup.from_spec(parse_group_spec("U2xU2"))
    a = grp.element_from_word((1, 3))
    b = grp.element_from_word((3, 1))
    assert a == b and a.key == b.key


def test_evidence_reports():
    ev = ball_graph_diameter_evidence(u(2), 6)
    assert ev.ok and ev.diameter_claim == 2
    assert ev.kind == "universal-diameter-2"
    ev3 = ball_graph_diameter_evidence(u(3), 4)
    assert ev3.ok and ev3.diameter_claim == 2
    with pytest.raises(ValueError):
        ball_graph_diameter_evidence(u(2), 2)


def test_affine_rank3_diameter_evidence():
    grp = InfiniteCoxeterGroup(CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]]))
    ev = ball_graph_diameter_evidence(grp, 4)
    assert ev.ok and ev.diameter_claim == 3
    assert ev.kind == "max-parabolic-diameter-3"


def test_product_diameter_checks():
    ev = product_diameter_check(["U2", "U2"], 4)
    assert ev.ok and ev.diameter_claim == 2
    labels = [c.description for c in ev.claims]
    assert any("coordinatewise" in d for d in labels)
    single = product_diameter_check(["U3"], 4)
    assert single.kind == "universal-diameter-2"  # degenerate one-factor case
    with pytest.raises(SpecError):
        product_diameter_check(["A2", "U2"], 4)


def test_evidence_json_shape():
    ev = ball_graph_diameter_evidence(u(2), 4)
    data = ev.to_json_dict()
    assert data["group"] == "U2" and data["diameter_claim"] == 2
    assert all(set(c) == {"description", "ok", "witness"} for c in data["claims"])
