"""Acceptance suite: one test per numbered criterion, strictest tolerances.

Every comparison here is exact (integer counts, element-set equality, string
equality against the frozen reference rows).  Each test prints a single
PASS/FAIL line; run with -s (or let a failure surface the details) to see
them.
"""

from e0graph import verify
from e0graph.symn import wlog_check


def _assert_report(num, description, report):
    status = "PASS" if report.ok else "FAIL"
    print(f"[{status}] criterion {num}: {description}")
    detail = "\n".join(
        f"  expected {a.expected!r}, got {a.actual!r} ({a.claim})"
        for a in report.failures()
    )
    assert report.ok, f"criterion {num} failed:\n{detail}"


def test_c01_table1_type_a_rows():
    _assert_report(1, "valency distributions of A3..A6 match the reference "
                      "rows cell for cell", verify.check_table1())


def test_c02_table2_exceptional_rows():
    _assert_report(2, "valency distributions of H3, F4, H4, E6 match the "
                      "reference rows", verify.check_table2())


def test_c03_two_components_and_bounded_diameter():
    _assert_report(3, "every suite group: {w0} isolated, the rest connected "
                      "with diameter at most 3", verify.check_thm_diam())


def test_c04_exact_hat_diameters():
    report = verify.check_thm_diam()
    exact = [a for a in report.details if "exact hat diameter" in a.claim]
    ok = all(a.ok for a in exact)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 4: hat diameter is 1 for "
          "A2 and A1xA1 (and its alias I2(3)) and 3 elsewhere")
    assert ok, [a.claim for a in exact if not a.ok]


def test_c05_generator_valency_bound():
    _assert_report(5, "generators have valency (|I|-1)/2 and every other "
                      "involution sits strictly below", verify.check_cor_highval())


def test_c06_samecard_pairing():
    _assert_report(6, "for each generator the xr / rxr pairing swaps "
                      "neighbourhood membership, halving the vertex set",
                   verify.check_thm_samecard_pairing())


def test_c07_valency_recursion_and_closed_forms():
    _assert_report(7, "delta recursion equals the graph-degree oracle for "
                      "n <= 8, closed forms agree, spot values 37/19/10 hold",
                   verify.check_thm_valency())


def test_c08_pendant_classification():
    _assert_report(8, "valency-1 vertices equal the closed-form prediction "
                      "for all supported types (H4, E6 included)",
                   verify.check_thm_pendant())
    _assert_report(8, "pendant count equals the rank everywhere",
                   verify.check_cor_lwn())


def test_c09_dihedral_distributions():
    _assert_report(9, "I2(m) distributions are 0^1.1^2...floor(m/2)^2 for "
                      "m = 3..12", verify.check_lem_i2m())


def test_c10_minimal_length_valency_is_class_invariant():
    failures = []
    for n in range(2, 9):
        for m in range(1, n // 2 + 1):
            if not wlog_check(m, n):
                failures.append((m, n))
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 10: all minimal-length "
          "class representatives share one valency for n <= 8")
    assert ok, failures


def test_c11_dn_coset_classification():
    _assert_report(11, "every non-identity distinguished representative in "
                       "D4..D7 factors by the two-case classification",
                   verify.check_thm_dn_cosets())


def test_c12_infinite_group_evidence():
    _assert_report(12, "infinite dihedral distance <= 2 at radius 8/10; "
                       "rank-2 vs rank-3 universal common-neighbour dichotomy",
                   verify.check_lem_universal())
    _assert_report(12, "product-of-infinite-factors ball checks",
                   verify.check_lem_product())


def test_c13_property_fuzz():
    _assert_report(13, "1000-sample fuzz per suite group: length steps, the "
                       "additivity formula, rxr jumps, zero excess on "
                       "involutions", verify.check_lem_lendown())
