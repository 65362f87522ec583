"""Ball exploration of infinite groups and the diameter evidence."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from itertools import chain, combinations
from pathlib import Path

import numpy as np
import pytest

from e0graph import cli, coxeter, graph, infinite
from e0graph.coxeter import (
    ROOT_KEY_DECIMALS,
    CoxeterGroup,
    CoxeterMatrix,
    SpecError,
    ToleranceError,
    float_keys,
    generate_root_system,
    negative,
    pack_words,
    parse_group_spec,
)
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


def test_key_collisions_are_refused(monkeypatch):
    # two involutions whose float keys agree would be merged by the vertex
    # index, and the graph would have fewer vertices than N-set columns
    real, n = infinite._mat_keys, len(infinite.walk_involutions(u(3), 4))

    def colliding(mats):  # the first key twice, the last one never
        keys = real(mats)
        return keys[:1] + keys[:-1]

    monkeypatch.setattr(infinite, "_mat_keys", colliding)
    with pytest.raises(ToleranceError, match=f"keys collide: {n - 1} keys for {n}"):
        infinite.involution_graph(u(3), 4)


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


def test_peeling_lexmin_words_needs_the_sum_rule():
    # entries reach 2.2e4, and the rounding noise on zero coefficients
    # passes 1e-9; testing each entry against -1e-9 misreads descents of
    # 2 of the 219 involutions of length <= 18 and of 51 of all 347
    group = InfiniteCoxeterGroup(H337)
    invs = enumerate_ball(group, 20).involutions()
    assert sum(z.length <= 18 for z in invs) == 219 and len(invs) == 347
    for z in invs:
        assert group.reduce_word(z.word[::-1]) == z.word


@pytest.mark.parametrize("group,radius", [
    (InfiniteCoxeterGroup(H337), 10),
    (InfiniteCoxeterGroup(AFFINE_A2), 15),
], ids=["337", "A2~"])
def test_one_canonical_word_across_constructors(group, radius):
    ball = enumerate_ball(group, radius)
    member = {e.word: e for e in ball.elements}
    for e in ball.elements:
        assert group.element_from_word(e.word).word == e.word
        inv = e.inverse()
        assert member[inv.word].key == inv.key


def test_peel_guards(monkeypatch):
    group = InfiniteCoxeterGroup(H337)

    def rule(value):
        return lambda roots, axis=-1: np.full(np.sum(roots, axis).shape, value)

    monkeypatch.setattr(infinite, "negative", rule(True))  # a descent forever
    with pytest.raises(ToleranceError, match="outgrew the word"):
        group.reduce_word((1, 2))
    monkeypatch.setattr(infinite, "negative", rule(False))  # never a descent
    with pytest.raises(ToleranceError, match="short of the identity"):
        group.reduce_word((1, 2))


# SHA-256 of the (3,3,7) radius-20 ball, taken while each layer's members
# were built as MatrixElements: repr of ([(word, key) ...], [involution
# word ...]), and the bytes of the members' stacked matrices
BALL_337_R20_SHA256 = "8cef504b304657cf1583f71881ccd74f29bf00ff339fc06e782c0f1169f2a9a4"
BALL_337_R20_MATS_SHA256 = "cab918d810f9f37bb662c9ce707f43b1f66fa5e60d9fefa02f436a964b9cbfee"


@pytest.fixture(scope="module")
def ball_of():
    """`enumerate_ball`, each (group, radius) once in this module: the
    (3,3,7) radius-20 ball and its 70,690 members serve two tests."""
    balls = {}

    def ball_of(group, radius):
        key = group.matrix, radius
        if key not in balls:
            balls[key] = enumerate_ball(group, radius)
        return balls[key]
    return ball_of


def test_radius_20_ball_is_pinned(ball_of):
    # entries reach 2.2e4, where float keys are most stressed
    ball = ball_of(InfiniteCoxeterGroup(H337), 20)
    text = repr(([(e.word, e.key) for e in ball.elements],
                 [z.word for z in ball.involutions()]))
    assert hashlib.sha256(text.encode()).hexdigest() == BALL_337_R20_SHA256
    mats = np.stack([e.mat for e in ball.elements])
    assert hashlib.sha256(mats.tobytes()).hexdigest() == BALL_337_R20_MATS_SHA256
    assert np.array_equal(mats, ball.mats)


def inverse_words(group, ball):
    """The lexmin word of each member's inverse, in member order, peeled off
    the member's own matrix: the left descents of w^-1 are the columns of w
    with a negative coefficient sum.  No walk and no stored word is read."""
    form2 = 2.0 * np.array(group.form)
    lengths = np.array([e.length for e in ball.elements])
    out = []
    for length in range(ball.radius + 1):
        m = ball.mats[lengths == length]
        rows, letters = np.arange(len(m)), []
        for _ in range(length):
            s = (m.sum(axis=1) < 0).argmax(axis=1)
            letters.append(s + 1)
            m = m - m[rows, :, s][:, :, None] * form2[s][:, None, :]
        out += map(tuple, np.reshape(letters, (length, len(m))).T.tolist())
    return out


# six balls: hyperbolic, universal, affine, reducible and finite
SIX_BALLS = pytest.mark.parametrize("group,radius", [
    (InfiniteCoxeterGroup(H337), 20),
    (u(3), 12),
    (u(4), 8),
    (InfiniteCoxeterGroup(AFFINE_A2), 32),
    (InfiniteCoxeterGroup.from_spec("U3xU3"), 6),
    (InfiniteCoxeterGroup(parse_group_spec("B3").coxeter_matrix()), 12),
], ids=["337", "U3", "U4", "A2~", "U3xU3", "B3"])


@SIX_BALLS
def test_walk_matches_the_ball_filtered(ball_of, group, radius):
    # the ball's members with w = w^-1, by their inverses' words
    ball = ball_of(group, radius)
    want = [e for e, w in zip(ball.elements, inverse_words(group, ball))
            if e.word and w == e.word]
    got = infinite.walk_involutions(group, radius)
    assert len(got) > 10
    assert [z.word for z in got] == [e.word for e in want]
    assert [z.key for z in got] == [e.key for e in want]
    assert all(np.array_equal(z.mat, e.mat) for z, e in zip(got, want))  # bit for bit
    assert all(group.element_from_word(z.word).key == z.key for z in got)


def two_pass_layers(group, radius):
    """`enumerate_ball`'s layer loop with one `_mul_gens` product of the
    gathered layer, and two sign passes a layer (the ascents, then the
    least descents of the candidates): its parent and letter arrays."""
    inv, parent, gen, start = group.identity_mat[None], [[0]], [[0]], 0
    for _ in range(radius):
        g, f = np.nonzero(~negative(inv, axis=1).T)
        if not len(f):
            break
        cand = group._mul_gens(inv[f], g)
        keep = negative(cand, axis=1).argmax(axis=1) == g
        parent.append(f[keep] + start)
        gen.append(g[keep] + 1)
        start += len(inv)
        inv = cand[keep]
    return np.concatenate(parent), np.concatenate(gen)


@SIX_BALLS
def test_ball_layers_match_the_two_pass_loop(monkeypatch, group, radius):
    want_parent, want_gen = two_pass_layers(group, radius)
    calls = []

    def counted(roots, axis=-1):
        calls.append(axis)
        return negative(roots, axis)
    monkeypatch.setattr(infinite, "negative", counted)
    ball = enumerate_ball(group, radius)
    assert np.array_equal(ball._parent, want_parent)
    assert np.array_equal(ball._gen, want_gen)
    assert len(calls) == len(ball._starts) - 1  # one per layer, the identity's too


@SIX_BALLS
def test_ball_mats_match_each_word_stepped(ball_of, group, radius):
    # every member's whole word stepped from the identity, a letter
    # position of a layer at a time
    ball = ball_of(group, radius)
    want = np.repeat(group.identity_mat[None], len(ball), axis=0)
    for lo, letters in zip(ball._starts, ball._letters()):
        hi = lo + len(letters)
        for s in letters.T - 1:
            want[lo:hi] = group._mul_gens(want[lo:hi], s)
    assert ball.mats.tobytes() == want.tobytes()  # bit for bit


def test_negative_is_the_sign_of_the_plain_sum(ball_of):
    # on root data, where the margin of 1 holds (random floats can sum to
    # about 0): every shape and axis the library passes
    mats = ball_of(InfiniteCoxeterGroup(H337), 20).mats
    cols = mats.transpose(0, 2, 1).reshape(-1, 3)  # entries reach 2.2e4
    e7 = np.array(generate_root_system(parse_group_spec("E7").coxeter_matrix()).pos_roots)
    roots = np.concatenate([e7, -e7])
    for x, axis in [(mats, 1), (mats, -2), (np.moveaxis(mats, 1, 0), 0),
                    (cols, -1), (roots, -1), (roots, 1)]:
        got = negative(x, axis)
        assert got.shape == x.sum(axis).shape
        assert np.array_equal(got, x.sum(axis) < 0)
    assert 0 < np.count_nonzero(negative(cols)) < len(cols)
    for m in mats[::1009]:  # one matrix, as `reduce_word` signs it
        assert np.array_equal(negative(m, axis=0), m.sum(0) < 0)
    for row in chain(cols[::997], roots):  # 1-D rows
        assert negative(row) == (row.sum() < 0)


@pytest.mark.parametrize("n,radius", [(3, 20), (4, 14)])
def test_walk_counts_universal_involutions(n, radius):
    # U_n's involutions are its odd palindromes, words with no letter twice
    # in a row: n(n-1)^k of length 2k+1, generated here from their halves
    want, halves = [], [(i,) for i in range(1, n + 1)]
    for k in range((radius + 1) // 2):
        want += sorted(h + h[-2::-1] for h in halves)
        halves = [h + (i,) for h in halves for i in range(1, n + 1) if i != h[-1]]
    got = [z.word for z in infinite.walk_involutions(u(n), radius)]
    assert got == want
    lengths = [len(w) for w in got]
    assert all(lengths.count(2 * k + 1) == n * (n - 1) ** k for k in range((radius + 1) // 2))
    if n == 3:
        assert len(got) == 3069  # the formula and the generated words agree


def test_walk_guards():
    with pytest.raises(ValueError):
        infinite.walk_involutions(u(3), -1)
    assert infinite.walk_involutions(u(3), 0) == []
    # 121 = 212 in affine A2 is stepped from 1 and from 2; only the step by
    # its least descent, 1, keeps it
    got = infinite.walk_involutions(InfiniteCoxeterGroup(AFFINE_A2), 3)
    assert [z.word for z in got] == [(1,), (2,), (3,), (1, 2, 1), (1, 3, 1), (2, 3, 2)]
    group = u(3)
    # one involution kept twice peels to one word twice
    r1 = group.generator(1).mat
    with pytest.raises(ToleranceError, match="split"):
        infinite._lexmin_involutions(group, [np.stack([r1, r1])])
    with pytest.raises(ToleranceError, match="stopped short"):
        infinite._lexmin_involutions(group, [group.identity_mat[None]])
    with pytest.raises(ToleranceError, match="outgrew"):
        infinite._lexmin_involutions(group, [group.element_from_word((1, 2, 1)).mat[None]])


def test_evidence_and_exports_enumerate_no_ball(monkeypatch, capsys):
    calls = []
    real = infinite.enumerate_ball
    monkeypatch.setattr(infinite, "enumerate_ball",
                        lambda *args: calls.append(args) or real(*args))
    assert ball_graph_diameter_evidence(u(3), 4).ok
    assert ball_graph_diameter_evidence(InfiniteCoxeterGroup(H337), 6).ok
    assert product_diameter_check(("U3", "U3"), 3).ok
    assert cli.main(["export", "-g", "U3", "--radius", "3"]) == 0
    assert calls == []
    assert cli.main(["ball", "-g", "U3", "--radius", "3"]) == 0
    assert len(calls) == 1  # the ball command's element count
    capsys.readouterr()


def test_members_are_built_on_demand(monkeypatch):
    built = []
    real = infinite.MatrixElement.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    group = InfiniteCoxeterGroup(H337)
    ref_words, _ = reference_ball(group, 12)
    outside = group.element_from_word((1, 2, 3) * 5)
    assert outside.length == 15
    monkeypatch.setattr(infinite.MatrixElement, "__init__", counted)
    ball = enumerate_ball(group, 12)
    assert len(ball) == len(ref_words) and outside not in ball
    assert not built  # the ball builds no member
    invs = ball.involutions()
    assert len(built) == len(invs)  # the walk builds only involutions
    assert invs[5] in ball
    assert ball.graph.edge_count()
    assert ball_graph_diameter_evidence(group, 12).ok
    # the evidence walk's involutions and the two parabolic witnesses
    assert len(built) == 2 * len(invs) + 2
    assert [e.word for e in ball.elements] == ref_words
    assert len(built) == 2 * len(invs) + 2 + len(ball)
    # one member per word and per key, and each involution is the member
    # with its word
    member = {e.word: e for e in ball.elements}
    assert len(member) == len({e.key for e in ball.elements}) == len(ball)
    assert all(member[z.word].key == z.key for z in invs)


def test_batched_n_sets_match_single_words():
    group = InfiniteCoxeterGroup(H337)
    words = [z.word for z in enumerate_ball(group, 9).involutions()]
    batch = group.n_set_vectors(words)
    single = np.concatenate([group.n_set_vectors([w]) for w in words])
    assert np.array_equal(batch, single)  # bit for bit
    assert len(batch) == sum(map(len, words))
    assert group.n_set_vectors([()]).shape == (0, 3)
    with pytest.raises(ToleranceError, match="negative"):
        group.n_set_vectors([(1, 2, 1), (1, 2, 2)])


def test_root_columns_leave_numpy_random_unimported():
    script = ("import sys; from e0graph.infinite import InfiniteCoxeterGroup, "
              "enumerate_ball; enumerate_ball(InfiniteCoxeterGroup.from_spec('U3'), 4)"
              ".graph; print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(infinite.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"


def test_ball_matrices_match_single_element_path():
    group = InfiniteCoxeterGroup(H337)
    ball = enumerate_ball(group, 10)
    member = {e.word: e for e in ball.elements}
    for e in ball.elements:
        single = group.element_from_word(e.word)
        assert np.array_equal(single.mat, e.mat)  # bit for bit
        assert single.key == e.key and member[single.word] is e


def test_balls_close_no_root_system(monkeypatch):
    calls = []

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.rank)
        return generate_root_system(matrix, *args, **kwargs)

    monkeypatch.setattr(coxeter, "generate_root_system", counted)
    ball = enumerate_ball(u(3), 6)
    assert ball.graph.edge_count()
    # every member's N-set keyed: a member of length l holds l roots
    words = [e.word for e in ball.elements]
    cols = infinite.root_columns(u(3).n_set_vectors(words))
    n_sets = np.split(cols, np.cumsum(list(map(len, words)))[:-1])
    assert all(len(set(c.tolist())) == len(w) for c, w in zip(n_sets, words))
    assert ball_graph_diameter_evidence(u(3), 4).ok
    assert product_diameter_check(("U3", "U3"), 3).ok
    assert calls == []
    # the (3,3,7) witnesses come from finite rank-2 parabolics, closed on their own
    assert ball_graph_diameter_evidence(InfiniteCoxeterGroup(H337), 6).ok
    assert calls and set(calls) == {2}


@pytest.mark.parametrize("group,radius", [
    (u(3), 6),
    (u(4), 4),
    (InfiniteCoxeterGroup(H337), 12),
    (InfiniteCoxeterGroup(AFFINE_A2), 15),
    (InfiniteCoxeterGroup.from_spec("U3xU3"), 3),
], ids=["U3", "U4", "337", "A2~", "U3xU3"])
def test_root_columns_match_root_system(group, radius):
    # the independent method: a root system closed to the ball's radius
    roots = generate_root_system(group.matrix, max_depth=radius)
    ball = enumerate_ball(group, radius)
    rows = ball.graph.rows
    # every member's N-set in one batch, split back by word length
    vectors = group.n_set_vectors([e.word for e in ball.elements])
    cuts = np.cumsum([e.length for e in ball.elements])[:-1]
    indices = [roots.indices_of(v) for v in np.split(vectors, cuts)]
    cols = infinite.root_columns(vectors)
    n_sets = [frozenset(c) for c in np.split(cols.tolist(), cuts)]
    # one root-system index per column, and no index for two columns
    _, first = np.unique(cols, return_index=True)
    by_column = roots.indices_of(vectors[first])
    assert len(by_column) == cols.max() + 1
    assert None not in by_column and len(set(by_column)) == len(by_column)
    assert all(p < roots.pos_count for p in by_column)
    for n_set, idx in zip(n_sets, indices):
        assert {by_column[c] for c in n_set} == set(idx)
    assert set(by_column) == set().union(*indices)
    # the graph from root-system indices
    invs = ball.involutions()
    member = np.zeros((len(invs), roots.pos_count), dtype=bool)
    for v, z in enumerate(invs):
        member[v, roots.indices_of(group.n_set_vectors([z.word]))] = True
    assert np.array_equal(rows, graph._pairwise_disjoint_rows(pack_words(member)))


def test_root_key_split_aborts():
    # 5e-7 apart, on either side of a rounding boundary: two keys, one root
    near = np.array([[2.0000004, 1.0], [2.0000009, 1.0]])
    with pytest.raises(ToleranceError, match="split"):
        infinite.root_columns(near)
    # one column per key, also for keys that end in zero bytes
    ok = np.array([[0.0, 1.0], near[0], [1.0, 0.0], near[0], [0.0, 0.0]])
    cols = infinite.root_columns(ok).tolist()
    assert cols[1] == cols[3] and sorted(set(cols)) == [0, 1, 2, 3]
    # a far root whose projection falls between the two: still caught
    d = infinite._split_direction(2)
    between = [near[0][0] + 1.0, 1.0 - d[0] * (1.0 - 2.5e-7) / d[1]]
    with pytest.raises(ToleranceError, match="split"):
        infinite.root_columns(np.array([near[0], between, near[1]]))


def test_root_key_collision_aborts(monkeypatch):
    # every key hit now counts as two roots on one key
    group = InfiniteCoxeterGroup(AFFINE_A2)
    assert infinite.involution_graph(group, 4).edge_count()
    monkeypatch.setattr(infinite, "ROOT_COLLISION_TOL", -1.0)
    with pytest.raises(ToleranceError, match="collision"):
        infinite.involution_graph(group, 4)


def test_ball_graph_holds_no_dense_root_membership():
    # a V x (distinct N-set roots) bool array would take 5.8 MB here; the
    # graph packs only the roots that two N-sets share
    group = InfiniteCoxeterGroup(H337)
    invs = infinite.walk_involutions(group, 24)
    vectors = group.n_set_vectors([z.word for z in invs])
    roots = len(set(float_keys(vectors, ROOT_KEY_DECIMALS)))
    assert (len(invs), roots) == (868, 6636)
    tracemalloc.start()
    try:
        g = infinite.involution_graph(group, 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g) == len(invs) and peak < len(invs) * roots


def test_ball_layers_are_budgeted(monkeypatch, capsys):
    # U3's length-2 layer: 3 members and 6 candidates, 3 x 3 matrices, after
    # the identity and 3 members: 8 * ((3 + 3 * 6) * 9 + 8 * 6 + 2 * 4) bytes
    monkeypatch.setattr(graph, "ADJACENCY_BUDGET", 1959)
    assert len(enumerate_ball(u(3), 1)) == 4
    with pytest.raises(SpecError, match=r"1960 bytes, more than ADJACENCY_BUDGET \(1959"):
        enumerate_ball(u(3), 2)
    assert cli.main(["ball", "-g", "U3", "--radius", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and "ADJACENCY_BUDGET" in out.err


def test_ball_budget_counts_the_measured_peak(monkeypatch):
    # the counted need of the largest layer covers what the layer allocates
    tracemalloc.start()
    try:
        assert len(enumerate_ball(InfiniteCoxeterGroup(H337), 22)) == 177010
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(graph, "ADJACENCY_BUDGET", peak - 1)
    with pytest.raises(SpecError, match="length-22 layer"):
        enumerate_ball(InfiniteCoxeterGroup(H337), 22)


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
    assert words(universal_neighborhood(r, ball.graph)) == {(2,), (2, 1, 2)}
    rsr = grp.element_from_word((1, 2, 1))
    assert words(universal_neighborhood(rsr, ball.graph)) == {(2,), (2, 1, 2)}
    grp3 = u(3)
    g3 = infinite.involution_graph(grp3, 1)
    r1 = grp3.element_from_word((1,))
    assert words(universal_neighborhood(r1, g3)) == {(2,), (3,)}
    with pytest.raises(ValueError, match="not a vertex"):
        universal_neighborhood(grp3.element_from_word((1, 2)), g3)


def test_universal_neighborhood_matches_direct_adjacency():
    for n, L in [(2, 6), (3, 4)]:
        grp = u(n)
        g = enumerate_ball(grp, L).graph
        invs = list(g.vertices)
        for i, x in enumerate(invs):
            rule = words(universal_neighborhood(x, g))
            direct = {z.word for j, z in enumerate(invs) if g.has_edge(i, j)}
            assert rule == direct


def test_universal_neighborhood_needs_universal_group():
    m = CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    grp = InfiniteCoxeterGroup(m)
    g = infinite.involution_graph(grp, 3)
    x = grp.element_from_word((1,))
    with pytest.raises(SpecError):
        universal_neighborhood(x, g)


def test_dihedral_families_share_neighbourhoods():
    # involutions split into words ending in 1 and words ending in 2; each
    # member of one family is adjacent to exactly the other family
    grp = u(2)
    g = enumerate_ball(grp, 7).graph
    invs = list(g.vertices)
    for i, x in enumerate(invs):
        nbrs = {z.word for j, z in enumerate(invs) if g.has_edge(i, j)}
        assert nbrs == {z.word for z in invs if z.word[-1] != x.word[-1]}


def test_ball_involutions_touch_generators():
    # any involution of length <= L-1 is adjacent to some generator
    for grp, L in [(u(2), 6), (u(3), 5)]:
        g = enumerate_ball(grp, L).graph
        gens = [g.vertices.index_of(grp.element_from_word((i,))) for i in grp.generators]
        for v, x in enumerate(g.vertices):
            if x.length <= L - 1:
                assert any(g.has_edge(v, k) for k in gens)


def test_ball_degrees_monotone_in_radius():
    grp = u(3)
    small = enumerate_ball(grp, 4).graph
    big = enumerate_ball(grp, 5).graph
    for i, x in enumerate(small.vertices):
        assert big.degree(big.vertices.index_of(x)) >= small.degree(i)


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


def _packed_rows(a):
    """The rows of a bool matrix packed as `E0Graph.rows` packs its rows."""
    return np.ascontiguousarray(pack_words(a).T)


def test_single_coordinate_middle_passes_over_wider_neighbours():
    # In the U_n products every first pair has a generator of another factor
    # as its first common neighbour, so a hand-built graph shows the choice:
    # 0 and 1 meet at 2, supported in two coordinates, and then at 3, in one.
    a = np.zeros((4, 4), dtype=bool)
    for i, j in [(0, 2), (1, 2), (0, 3), (1, 3)]:
        a[i, j] = a[j, i] = True
    rows, far = _packed_rows(a), np.triu(~a, 1)
    one_coord = _packed_rows(np.array([[True, True, False, True]]))[0]
    assert infinite._single_coordinate_middle(rows, far, one_coord) == (0, 1, 3)
    none = _packed_rows(np.zeros((1, 4), dtype=bool))[0]
    assert infinite._single_coordinate_middle(rows, far, none) is None


@pytest.mark.parametrize("group,radius", [
    (u(2), 10),
    (u(3), 12),
    (u(4), 8),
    (InfiniteCoxeterGroup(H337), 18),
    (InfiniteCoxeterGroup.from_spec("U3xU3"), 6),
], ids=["U2", "U3", "U4", "337", "U3xU3"])
def test_no_common_neighbour_matches_a_product(group, radius):
    # the independent method: the bool matrix product of the unpacked rows
    g = infinite.involution_graph(group, radius)
    V = len(g)
    a = graph._bools(g.rows, V)
    off = ~np.eye(V, dtype=bool)
    assert np.array_equal(infinite._no_common_neighbour(g.rows), ~(a @ a.T) & off)
    for seed in range(3):
        mask = np.random.default_rng(seed).random(V) < 0.5
        packed = _packed_rows(mask[None])[0]
        got = infinite._no_common_neighbour(g.rows & packed)
        assert np.array_equal(got, ~((a & mask) @ a.T) & off)
    # an inner ball's rows, as the evidence reports scan them
    n = V // 2
    assert np.array_equal(infinite._no_common_neighbour(g.rows[:n]), ~(a[:n] @ a[:n].T) & off[:n, :n])


def test_diameter_3_report_builds_no_matrix(monkeypatch):
    # the report reads two rows off the N-set words, and no row block
    def refuse(*args, **kwargs):
        raise AssertionError("the diameter-3 report built a row block")

    monkeypatch.setattr(graph, "_row_blocks", refuse)
    for label in ("337 r10", "337 r4", "A2~ r10"):
        name, radius = label.split(" r")
        group = InfiniteCoxeterGroup(H337 if name == "337" else AFFINE_A2)
        report = ball_graph_diameter_evidence(group, int(radius))
        text = report.to_json(indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == EVIDENCE_SHA256[label]


def test_evidence_json_shape():
    ev = ball_graph_diameter_evidence(u(2), 4)
    data = ev.to_json_dict()
    assert data["group"] == "U2" and data["diameter_claim"] == 2
    assert all(set(c) == {"description", "ok", "witness"} for c in data["claims"])


@pytest.mark.parametrize("group,radius", [
    (u(3), 5),
    (InfiniteCoxeterGroup.from_spec("U2xU3"), 4),
    (InfiniteCoxeterGroup(H337), 7),
    (InfiniteCoxeterGroup(AFFINE_A2), 8),
], ids=["U3", "U2xU3", "337", "A2~"])
@pytest.mark.parametrize("chunk", [None, 8])
def test_ball_graph_matches_length_definition(monkeypatch, group, radius, chunk):
    # the definition, l(xy) = l(x) + l(y), through reduce_word on matrices:
    # no N-set and no root system is involved
    if chunk:
        monkeypatch.setattr(graph, "CHUNK_BYTES", chunk)
    ball = enumerate_ball(group, radius)
    g = ball.graph
    invs = ball.involutions()
    assert list(g.vertices) == invs and len(invs) > 10
    for i, x in enumerate(invs):
        for j, y in enumerate(invs):
            assert g.has_edge(i, j) == ((x * y).length == x.length + y.length)


def test_infinite_bond_parabolics_close_no_roots(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return generate_root_system(*args, **kwargs)

    monkeypatch.setattr(coxeter, "generate_root_system", counted)
    grp = InfiniteCoxeterGroup.from_spec("U2xU3")  # every maximal parabolic has m = inf
    with pytest.raises(SpecError, match="not finite"):
        grp.parabolic_longest({1, 3, 4})
    ev = ball_graph_diameter_evidence(grp, 3)
    assert calls == []
    assert ev.to_json_dict() == {
        "kind": "max-parabolic-diameter-3",
        "group": "U2xU3",
        "radius": 3,
        "extra": 2,
        "diameter_claim": 3,
        "ok": False,
        "claims": [
            {"description": "two finite maximal parabolic subgroups exist",
             "ok": False, "witness": {}},
        ],
    }


def test_each_maximal_parabolic_is_looked_up_once(monkeypatch):
    # A1 x affine A2: R - {1} is infinite with no m = inf bond, skipped
    # before any lookup, since its cosine form is not positive definite;
    # R - {2} and R - {3} are finite
    m = [[1, 2, 2, 2], [2, 1, 3, 3], [2, 3, 1, 3], [2, 3, 3, 1]]
    grp = InfiniteCoxeterGroup(CoxeterMatrix(m))
    asked = []
    real = InfiniteCoxeterGroup.parabolic_longest

    def counted(self, J):
        asked.append(sorted(J))
        return real(self, J)

    monkeypatch.setattr(InfiniteCoxeterGroup, "parabolic_longest", counted)
    ev = ball_graph_diameter_evidence(grp, 3)
    assert asked == [[1, 3, 4], [1, 2, 4]]
    assert ev.claims[0].ok and ev.claims[0].witness["r"] == 2
    assert ev.claims[0].witness["s"] == 3


def test_evidence_propagates_a_packing_refusal():
    # a path of 17 nodes with its last bond infinite: R - {16} is A15 x A1
    # (121 positive roots) and R - {17} is A16, finite, but with 136 positive
    # roots, too many for the packed permutations; every other maximal
    # parabolic holds the infinite bond
    grp = InfiniteCoxeterGroup(CoxeterMatrix(coxeter._path_matrix(17, [3] * 15 + [0])))
    with pytest.raises(SpecError, match="too many roots for the packed representation"):
        ball_graph_diameter_evidence(grp, 3)


def _affine_e8():
    m = [list(row) + [2] for row in parse_group_spec("E8").coxeter_matrix().entries]
    m.append([2] * 7 + [3, 1])
    m[7][8] = 3  # the affine node hangs off node 8, the end of the long arm
    return m


# every parabolic of these groups is compared with the greedy ascent
PARABOLIC_GROUPS = {
    "A2~": AFFINE_A2.entries,
    "C2~": [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
    "G2~": [[1, 6, 2], [6, 1, 3], [2, 3, 1]],
    "A3~": [[1, 3, 2, 3], [3, 1, 3, 2], [2, 3, 1, 3], [3, 2, 3, 1]],
    "E8~": _affine_e8(),
    "237": [[1, 2, 3], [2, 1, 7], [3, 7, 1]],
    "337": H337.entries,
    "23inf": [[1, 2, 3], [2, 1, 0], [3, 0, 1]],
    "A1xA2~": [[1, 2, 2, 2], [2, 1, 3, 3], [2, 3, 1, 3], [2, 3, 3, 1]],
    # compact hyperbolic: every proper parabolic is finite
    "5333": coxeter._path_matrix(5, [5, 3, 3, 3]),
}


def ascent_longest(group, J):
    """(word, matrix) of the longest element of a finite W_J by greedy ascent,
    on the group's own float matrices: append the least generator of J whose
    column is positive until none is, with the positive roots of J's closed
    root system as the bound on the length."""
    J = sorted(J)
    sub = CoxeterMatrix([[group.matrix.order(i, j) for j in J] for i in J])
    roots = generate_root_system(sub, max_depth=32)
    assert roots.complete
    mat, word = group.identity_mat, []
    while (s := next((t for t in J if not negative(mat[:, t - 1])), None)) is not None:
        word.append(s)
        assert len(word) <= roots.pos_count
        mat = group._mul_gen(mat, s)
    return tuple(word), mat


@pytest.mark.parametrize("label", sorted(PARABOLIC_GROUPS))
def test_parabolic_longest_matches_the_greedy_ascent(label):
    group = InfiniteCoxeterGroup(CoxeterMatrix(PARABOLIC_GROUPS[label]))
    subsets = chain.from_iterable(
        combinations(group.generators, k) for k in range(1, group.rank + 1))
    finite = 0
    for J in subsets:
        sub = CoxeterMatrix([[group.matrix.order(i, j) for j in J] for i in J])
        if not sub.is_finite:
            with pytest.raises(SpecError, match="not finite"):
                group.parabolic_longest(J)
            continue
        finite += 1
        x = group.parabolic_longest(J)
        word, mat = ascent_longest(group, J)
        assert x.word == word and x.mat.tobytes() == mat.tobytes()
    # R itself is infinite; the compact hyperbolic group's other parabolics
    # are all finite
    assert 0 < finite < 2 ** group.rank - 1
    if label == "5333":
        assert finite == 2 ** 5 - 2


def test_infinite_matrices_are_refused_before_any_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a root system was closed")

    monkeypatch.setattr(coxeter, "generate_root_system", refuse)
    for m in (H337, AFFINE_A2):
        with pytest.raises(SpecError, match="not finite"):
            CoxeterGroup(m)
    with pytest.raises(SpecError, match="not finite"):
        InfiniteCoxeterGroup(H337).parabolic_longest({1, 2, 3})


def test_evidence_closes_no_hyperbolic_parabolic(monkeypatch):
    # R - {1} is the (2,3,7) triangle, R - {2} is A3 and R - {3} is A2 x A1
    group = InfiniteCoxeterGroup(
        CoxeterMatrix([[1, 3, 3, 2], [3, 1, 7, 2], [3, 7, 1, 3], [2, 2, 3, 1]]))
    hyperbolic = np.array(coxeter.bilinear_form(CoxeterMatrix([[1, 7, 2], [7, 1, 3], [2, 3, 1]])))
    forms = []  # every form whose roots were reflected, by closure or otherwise
    real = coxeter._reflect_all

    def recorded(form, roots):
        forms.append(form)
        return real(form, roots)

    monkeypatch.setattr(coxeter, "_reflect_all", recorded)
    ev = ball_graph_diameter_evidence(group, 6)
    assert ev.ok and (ev.claims[0].witness["r"], ev.claims[0].witness["s"]) == (2, 3)
    assert forms and not any(np.array_equal(f, hyperbolic) for f in forms)


def inverse_series(p, n):
    """The first n coefficients of 1 / p(t), for an integer series p with
    p(0) = 1: integer division, no float."""
    out = []
    for k in range(n):
        out.append((k == 0) - sum(p[i] * out[k - i] for i in range(1, min(k + 1, len(p)))))
    return out


def steinberg_growth(matrix, radius):
    """The number of elements of each length <= radius of the infinite
    Coxeter group on `matrix` (a list of rows, 0 for infinity), by
    Steinberg's formula (Bjorner-Brenti, GTM 231, ch. 7):

        1 / W(t) = sum over J with W_J finite of (-1)^|J| t^N_J / W_J(t),

    where W_J(t) is the length generating polynomial of W_J and N_J its
    degree.  W_J is finite iff its cosine form is positive definite; W_J(t)
    counts the lengths of a `CoxeterGroup` on the sub-matrix.  No ball,
    matrix key or root sign of the infinite group is involved.
    """
    n = len(matrix)
    form = np.array([[-np.cos(np.pi / m) if m else -1.0 for m in row] for row in matrix])
    inverse = [0] * (radius + 1)
    for J in chain.from_iterable(combinations(range(n), k) for k in range(n + 1)):
        if J and np.linalg.eigvalsh(form[np.ix_(J, J)]).min() < 1e-9:
            continue  # W_J is infinite
        poincare = [1]
        if J:
            sub = CoxeterGroup(CoxeterMatrix([[matrix[i][j] for j in J] for i in J]))
            poincare = np.bincount([sub._length(p) for p in sub.enumerate_perms()]).tolist()
        term = [0] * (len(poincare) - 1) + inverse_series(poincare, radius + 1)
        for k in range(radius + 1):
            inverse[k] += (-1) ** len(J) * term[k]
    return inverse_series(inverse, radius + 1)


@pytest.mark.parametrize("group,radius,total", [
    (u(3), 12, 12286),
    (u(4), 8, 13121),
    (InfiniteCoxeterGroup(AFFINE_A2), 30, 1396),
    (InfiniteCoxeterGroup(H337), 20, 70690),
    # the first radius with an element whose matrices along two words,
    # ...1,2,3,2 and ...1,3,2,3, round to two keys (443,219 by keys)
    (InfiniteCoxeterGroup(H337), 24, 443217),
], ids=["U3", "U4", "A2~", "337-r20", "337-r24"])
def test_ball_equals_the_growth_series(ball_of, group, radius, total):
    # the independent method: per length, the series of the finite parabolics
    want = steinberg_growth([list(row) for row in group.matrix.entries], radius)
    ball = ball_of(group, radius)
    assert np.diff(ball._starts).tolist() == want
    assert len(ball) == sum(want) == total


# SHA-256 of each report's to_json(indent=2), taken while the ball pair scans
# ran on Python-int N-sets: the reports must stay byte for byte the same
EVIDENCE_SHA256 = {
    "U2 r6": "c3bc89395cd627d88db851b2f916728d44f93eb92e9a0a96abff2f9506945c76",
    "U3 r6": "134923533e7db3a225081d3ac4461283d7888914485a242761d2d6b10d4c2dc5",
    "U4 r4": "2788c98ef54306b05c42f366ee1866283fab53bf40e4d73753b93fd2fb84e62e",
    "337 r10": "14df6f6adbb228d211f2d188bd21ccd9fbd3acd675a0727b20627c90f5489d47",
    # y = [1,3,1,3,1,3,1] is longer than the radius
    "337 r4": "e338640488f8a007c2bf9138cd7fdd845f27a9166f5e857ba4335b1a2ca0753c",
    "A2~ r10": "c309a49bcbb29abe7ff2d8f9332a80aa019e7120513008d789a4270ab8d43bbd",
    "U2xU3 r3": "25049429e5bef22a397b142f0ac5d78ce5755ef1dceaaf12f90202232a36b63b",
    "U2,U2 r4": "5ef101ff26e40ddacb7ea1cd309005136580125e42a374a25a1c51001cf29f1b",
    "U3,U3 r3": "814e645edbb6b4f927c7f16aa62650309c9680d500e753ebe49e2cf7bd9a90c9",
}


@pytest.mark.parametrize("label", sorted(EVIDENCE_SHA256))
def test_evidence_reports_are_pinned(label):
    name, radius = label.split(" r")
    groups = {"337": lambda: InfiniteCoxeterGroup(H337),
              "A2~": lambda: InfiniteCoxeterGroup(AFFINE_A2)}
    if "," in name:
        report = product_diameter_check(name.split(","), int(radius))
    else:
        group = groups.get(name, lambda: InfiniteCoxeterGroup.from_spec(name))()
        report = ball_graph_diameter_evidence(group, int(radius))
    text = report.to_json(indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == EVIDENCE_SHA256[label]
