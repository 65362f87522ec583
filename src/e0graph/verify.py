"""Named verification checks over the small-group suite.

Each check is one row of the `CHECKS` table: a ladder of inputs (mostly
group labels) and a row function that adds the assertions for one input,
comparing computed quantities against the frozen reference tables or the
closed forms.  `run_check` runs a row over its ladder in order and collects
a structured report.  Failed assertions always carry both the expected and
the observed value.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import graph as gr
from . import infinite as inf
from . import symn
from . import tables
from .coxeter import CoxeterGroup, Element, format_word

# finite groups exercised by the structural checks
SUITE = (
    "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5",
    "D4", "D5", "D6",
    "F4", "H3",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
    "I2(9)", "I2(10)", "I2(11)", "I2(12)",
    "A1xA1", "A2xA2",
)

# groups whose hat component is a single edge; everything else in the suite
# has hat diameter 3 (I2(3) is the same group as A2)
_DIAMETER_ONE = {"A2", "A1xA1", "I2(3)"}

PENDANT_TYPES = (
    "A2", "A3", "A4", "A5", "A6", "A7",
    "B2", "B3", "B4", "B5",
    "D4", "D5", "D6", "D7",
    "F4", "H3",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
    "I2(9)", "I2(10)", "I2(11)", "I2(12)",
    "H4", "E6",
)

FUZZ_SEED = 20260809
FUZZ_SAMPLES = 1000


@dataclass
class Assertion:
    claim: str
    ok: bool
    expected: object = None
    actual: object = None
    note: str = ""

    def as_dict(self):
        out = {"claim": self.claim, "ok": self.ok}
        if not self.ok or self.expected is not None:
            out["expected"] = _plain(self.expected)
            out["actual"] = _plain(self.actual)
        if self.note:
            out["note"] = self.note
        return out


def _plain(v):
    if isinstance(v, (str, int, float, bool, type(None))):
        return v
    return str(v)


@dataclass
class VerifyReport:
    check: str
    details: list = field(default_factory=list)

    @property
    def ok(self):
        return all(a.ok for a in self.details)

    @property
    def status(self):
        return "pass" if self.ok else "fail"

    def expect(self, claim, expected, actual, note=""):
        self.details.append(Assertion(claim, expected == actual, expected, actual, note))

    def require(self, claim, ok, expected=None, actual=None, note=""):
        self.details.append(Assertion(claim, bool(ok), expected, actual, note))

    def failures(self):
        return [a for a in self.details if not a.ok]

    def summary(self):
        lines = [f"[{self.status.upper()}] {self.check}: "
                 f"{len(self.details)} assertions"]
        for a in self.failures():
            lines.append(f"  FAIL {a.claim}: expected {a.expected!r}, "
                         f"got {a.actual!r}")
        return "\n".join(lines)

    def to_json_dict(self):
        return {
            "check": self.check,
            "status": self.status,
            "details": [a.as_dict() for a in self.details],
        }

    def to_json(self, **kwargs):
        return json.dumps(self.to_json_dict(), **kwargs)


@lru_cache(maxsize=None)
def group_for(label):
    return CoxeterGroup.from_spec(label)


def graph_for(label):
    return gr.build_graph(group_for(label))


# ---------------------------------------------------------------------------
# the rows: row(rep, item) adds the assertions for one input of a check
# ---------------------------------------------------------------------------

def _distribution(claim, reference, notes=None):
    """A row comparing the valency distribution of a group with
    `reference(label)`; `claim` is formatted with the label."""
    def row(rep, label):
        got = str(gr.valency_distribution(graph_for(label)))
        note = (notes or {}).get(label, "")
        rep.expect(claim.format(label), reference(label), got, note)
    return row


def _dihedral(label):
    """The I2(m) reference row, m read from the group's Coxeter matrix."""
    return str(tables.dihedral_distribution(group_for(label).matrix.order(1, 2)))


def _thm_diam(rep, label):
    group = group_for(label)
    g = graph_for(label)
    comps, hat_diam = gr.components_and_diameter(g)
    w0 = group.longest_element()
    rep.expect(f"{label}: number of connected components", 2, len(comps))
    singles = [c for c in comps if len(c) == 1]
    rep.require(
        f"{label}: the longest element is an isolated component",
        any(c == frozenset([w0]) for c in singles),
        expected="{w0} isolated",
        actual=f"{len(singles)} singleton component(s)",
    )
    rep.require(f"{label}: hat diameter at most 3", hat_diam <= 3,
                expected="<= 3", actual=hat_diam)
    want = 1 if label in _DIAMETER_ONE else 3
    rep.expect(f"{label}: exact hat diameter", want, hat_diam)
    if group.rank >= 3:
        bad = []
        for r in group.generators:
            for s in group.generators:
                if s <= r:
                    continue
                x = group.parabolic_longest(set(group.generators) - {r})
                y = group.parabolic_longest(set(group.generators) - {s})
                d = gr.graph_distance(g, x, y)
                if d != 3:
                    bad.append((r, s, d))
        rep.require(
            f"{label}: maximal-parabolic longest elements lie at "
            "distance 3 for every generator pair",
            not bad, expected=3,
            actual=bad[:3] if bad else 3,
        )


def _cor_highval(rep, label):
    group = group_for(label)
    g = graph_for(label)
    bound, rem = divmod(len(g) - 1, 2)
    rep.expect(f"{label}: |I(W)| - 1 is even", 0, rem)
    degs = g.degrees()
    gen_idx = {g.vertices.index_of(group.generator(i)) for i in group.generators}
    bad_gen = [i for i in gen_idx if degs[i] != bound]
    bad_other = [i for i in range(len(g))
                 if i not in gen_idx and degs[i] >= bound]
    rep.require(f"{label}: every generator has valency (|I|-1)/2 = {bound}",
                not bad_gen, expected=bound,
                actual=[degs[i] for i in bad_gen] or bound)
    rep.require(f"{label}: every non-generator involution has valency "
                f"< {bound}", not bad_other, expected=f"< {bound}",
                actual=[degs[i] for i in bad_other[:3]] or "all below")


def _samecard_pairing(rep, label):
    group = group_for(label)
    g = graph_for(label)
    V = len(g)
    for i in group.generators:
        r = group.generator(i)
        ri = g.vertices.index_of(r)
        deg = g.degree(ri)
        rep.expect(
            f"{label}, r{i}: |neighbours| equals |non-neighbours| "
            "among the other involutions",
            V - 1 - deg, deg,
        )
        bad = 0
        for xi, x in enumerate(g.vertices):
            if xi == ri:
                continue
            if (x * r) == (r * x):
                partner = x * r
            else:
                partner = r * x * r
            if g.has_edge(ri, xi) == g.has_edge(ri, g.vertices.index_of(partner)):
                bad += 1
        rep.require(
            f"{label}, r{i}: the xr / rxr pairing swaps membership in "
            "the neighbourhood of r",
            bad == 0, expected=0, actual=bad,
        )


def _thm_valency(rep, _):
    for n in range(2, 9):
        for m in range(1, n // 2 + 1):
            rep.expect(f"delta({m},{n}): recursion equals graph degree",
                       symn.delta_bruteforce(m, n), symn.delta(m, n))
    bounds = {1: 2, 2: 4, 3: 6, 4: 8}
    for m, lo in bounds.items():
        for n in range(lo, 13):
            rep.expect(f"delta({m},{n}): closed form equals recursion",
                       symn.delta(m, n), symn.delta_closed_form(m, n))
    for (m, n), want in {(1, 6): 37, (2, 6): 19, (3, 6): 10}.items():
        rep.expect(f"delta({m},{n}) spot value", want, symn.delta(m, n))
    for n in range(2, 9):
        for m in range(1, n // 2 + 1):
            rep.require(
                f"({m},{n}): all minimal-length class members share one valency",
                symn.wlog_check(m, n), expected=True, actual=False,
            )


def _thm_pendant(rep, label):
    r = gr.pendant_report(group_for(label))
    rep.require(
        f"{label}: valency-1 vertices equal the closed-form prediction",
        r.match,
        expected=sorted(format_word(e.word) for e in r.predicted),
        actual=sorted(format_word(e.word) for e in r.computed),
    )


def _cor_lwn(rep, label):
    rep.expect(f"{label}: number of pendant elements equals the rank",
               group_for(label).rank, len(gr.pendant_elements(graph_for(label))))


def _lem_lendown(rep, label):
    """Property fuzz: length steps, the additivity formula, conjugation by a
    non-commuting generator, and zero excess for involutions.  Each group
    draws from its own stream, so the ladder's groups sample independently."""
    rng = random.Random(f"{FUZZ_SEED}:{label}")
    group = group_for(label)
    elements = [Element(group, p) for p in sorted(group.enumerate_perms())]
    gens = [group.generator(i) for i in group.generators]
    bad_step = bad_add = bad_conj = 0
    for _ in range(FUZZ_SAMPLES):
        w = rng.choice(elements)
        r = rng.choice(gens)
        if abs((w * r).length - w.length) != 1:
            bad_step += 1
        x = rng.choice(elements)
        y = rng.choice(elements)
        overlap = len(x.n_set() & y.inverse().n_set())
        if (x * y).length != x.length + y.length - 2 * overlap:
            bad_add += 1
    rep.require(f"{label}: l(wr) = l(w) +- 1 on {FUZZ_SAMPLES} samples",
                bad_step == 0, expected=0, actual=bad_step)
    rep.require(
        f"{label}: l(xy) = l(x) + l(y) - 2|N(x) & N(y^-1)| on "
        f"{FUZZ_SAMPLES} samples",
        bad_add == 0, expected=0, actual=bad_add)
    invs = list(gr.enumerate_involutions(group))
    noncommuting = [
        (x, r) for x in invs for r in gens if (x * r) != (r * x)
    ]
    if noncommuting:  # A1xA1 has none: everything commutes there
        for _ in range(FUZZ_SAMPLES):
            x, r = rng.choice(noncommuting)
            expected = x.length + (-2 if r.n_set() <= x.n_set() else 2)
            if (r * x * r).length != expected:
                bad_conj += 1
    rep.require(
        f"{label}: l(rxr) = l(x) +- 2 for non-commuting involution / "
        f"generator pairs on {FUZZ_SAMPLES} samples",
        bad_conj == 0, expected=0, actual=bad_conj,
        note="vacuous: no non-commuting pairs" if not noncommuting else "")
    nonzero = [x for x in invs if gr.excess(group, x) != 0]
    rep.require(f"{label}: every involution has zero excess",
                not nonzero, expected=0,
                actual=[format_word(x.word) for x in nonzero[:3]] or 0)


def _thm_dn_cosets(rep, label):
    group = group_for(label)
    n = group.rank
    reps = group.coset_representatives(set(range(1, n)), side="right")
    rep.expect(f"{label}: |X_J| for J = R minus r_{n}", 1 << (n - 1), len(reps))
    k_mask = set(range(1, n - 1))
    bad = []
    for x in reps:
        if x.is_identity():
            continue
        case = group.classify_dn_coset_rep(x)
        a = group.element_from_word(case.a_word)
        b = group.element_from_word(case.b_word)
        if a * b != x or a.length + b.length != x.length:
            bad.append((format_word(x.word), "factorization not reduced"))
        elif case.case in ("i-a", "i-b") and not group.in_parabolic(b, k_mask):
            bad.append((format_word(x.word), "b outside the {1..n-2} parabolic"))
        elif case.case == "i-a" and case.a_word != (n,):
            bad.append((format_word(x.word), "wrong a for case i-a"))
        elif case.case == "i-b" and case.a_word != (n, n - 2, n - 1):
            bad.append((format_word(x.word), "wrong a for case i-b"))
        elif case.case == "ii" and case.a_word != (n, n - 2, n - 3, n - 1, n - 2, n):
            bad.append((format_word(x.word), "wrong a for case ii"))
    rep.require(
        f"{label}: every non-identity representative factors per the "
        "classification, with lengths adding",
        not bad, expected="all classified", actual=bad[:3] or "all classified",
    )


def _lem_universal(rep, _):
    u2 = inf.InfiniteCoxeterGroup.from_spec("U2")
    u3 = inf.InfiniteCoxeterGroup.from_spec("U3")

    ev = inf.ball_graph_diameter_evidence(u2, 8, extra=2)
    rep.require(
        "infinite dihedral: every involution pair at radius 8 is adjacent or "
        "shares a neighbour within radius 10",
        ev.ok, expected="distance <= 2", actual=ev.to_json_dict()["claims"],
    )

    g2, g3 = inf.involution_graph(u2, 6), inf.involution_graph(u3, 6)
    a2, a3 = g2.dense(), g3.dense()
    # the edges i < j whose ends have a common neighbour (a @ a.T), or have none
    offenders = int((np.triu(a2, 1) & (a2 @ a2.T)).sum())
    rep.require(
        "rank-2 universal group: no adjacent involution pair has a common "
        "neighbour (radius 6)",
        not offenders, expected=0, actual=offenders,
    )
    missing = int((np.triu(a3, 1) & ~(a3 @ a3.T)).sum())
    rep.require(
        "rank-3 universal group: every adjacent involution pair has a common "
        "neighbour (radius 6)",
        not missing, expected=0, actual=missing,
    )

    for g, label in ((g2, "U2"), (g3, "U3")):
        bad = sum(g.neighborhood(x) != set(inf.universal_neighborhood(x, g))
                  for x in g.vertices)
        rep.require(
            f"{label}: the last-letter rule reproduces N-set adjacency on "
            "every ball involution",
            bad == 0, expected=0, actual=bad,
        )


def _lem_product(rep, item):
    specs, radius = item
    ev = inf.product_diameter_check(specs, radius)
    rep.require(
        f"{'x'.join(specs)}: coordinatewise adjacency and distance <= 2 "
        f"hold on the radius-{radius} ball",
        ev.ok, expected="all claims hold",
        actual=[c.description for c in ev.claims if not c.ok] or "all claims hold",
    )


# ---------------------------------------------------------------------------
# the table: name -> (ladder of inputs, row)
# ---------------------------------------------------------------------------

CHECKS = {
    "table1": (("A3", "A4", "A5", "A6"),
               _distribution("valency distribution of {}",
                             tables.TYPE_A_ROWS.__getitem__, {"A6": tables.A6_NOTE})),
    "table2": (("H3", "F4", "H4", "E6"),
               _distribution("valency distribution of {}",
                             tables.EXCEPTIONAL_ROWS.__getitem__)),
    "thm-diam": (SUITE + ("E7",), _thm_diam),
    "cor-highval": (SUITE, _cor_highval),
    "thm-samecard-pairing": (SUITE, _samecard_pairing),
    "thm-valency": ((None,), _thm_valency),
    "thm-pendant": (PENDANT_TYPES, _thm_pendant),
    "cor-lwn": (PENDANT_TYPES, _cor_lwn),
    "lem-i2m": (tuple(f"I2({m})" for m in range(3, 13)),
                _distribution("{}: distribution is 0^1.1^2...floor(m/2)^2", _dihedral)),
    "lem-lendown": (SUITE, _lem_lendown),
    "thm-dn-cosets": (("D4", "D5", "D6", "D7"), _thm_dn_cosets),
    "lem-universal": ((None,), _lem_universal),
    "lem-product": (((("U2", "U2"), 4), (("U3", "U3"), 3)), _lem_product),
}


def run_check(name):
    """Run the named check: its row on each input of its ladder, in order."""
    try:
        inputs, row = CHECKS[name]
    except KeyError:
        raise ValueError(
            f"unknown check {name!r}; available: {', '.join(sorted(CHECKS))}"
        ) from None
    rep = VerifyReport(name)
    for item in inputs:
        row(rep, item)
    return rep
