"""Acceptance suite: one test per numbered criterion, strictest tolerances.

Every comparison here is exact (integer counts, element-set equality, string
equality against the frozen reference rows).  Each test prints a single
PASS/FAIL line; run with -s (or let a failure surface the details) to see
them.
"""

import hashlib

from e0graph import verify
from e0graph.symn import wlog_check

# SHA-256 of each report's to_json(indent=2), taken when every check was its
# own function: the table of checks must reproduce the reports byte for byte
REPORT_SHA256 = {
    "table1": "b941acc95872de6a2dbf0d885966dabad290c10b53ee306d6101ac8a18f435d2",
    "table2": "4919611ca082bed55d37c1891ee2123e5ad254326f05c457f6b29094cf7f6276",
    "thm-diam": "db1ce8473aceefd6d0177b82eaf5e75b44c64aa071a181c14fbc318455444bc6",
    "cor-highval": "ad7adf6ef6d33fcfd2c188c95e43b86fc941d1ec812f75166faac1e6a46d2d4b",
    "thm-samecard-pairing":
        "733ee3e9a964b0aed9e21c06c8bc59449394d805c503e877e8a22c25a45d19f4",
    "thm-valency": "0865de845361850d517af5bb87c961b349d0c27ed36acdf0ffc0d0b9041a07a7",
    "thm-pendant": "afb151ca2649d3db072d8f9d16854964dba24b03a2da82f67781205ec6d1054c",
    "cor-lwn": "1ee0aa13a97fca7eddf89d7b95e95625d4693d16705ca28f4c484fc5343e3d28",
    "lem-i2m": "0c95ec977d6f89dab7fc4b89e5608c76310219d5d932744d98bf4c90bacc25d5",
    "lem-lendown": "926e3183c381b5c602ad8d1826bdf3658570ef64f0b24bae96deadea02f6ae20",
    "thm-dn-cosets": "55962e3280cc98e383d51c4fb6bd5989589cbe29ce01737e4094d6e25292ad1c",
    "lem-universal": "ac8ad20a31ce0c18c6019f41ad411ce5561673c1e755bf17b5e4a7de0cdb4508",
    "lem-product": "6ae65e8be2fb3fc18386918b3e9f196b47fbb72829cd4d72d7b0f40b72ba3360",
}


def _assert_report(num, description, report):
    status = "PASS" if report.ok else "FAIL"
    print(f"[{status}] criterion {num}: {description}")
    detail = "\n".join(
        f"  expected {a.expected!r}, got {a.actual!r} ({a.claim})"
        for a in report.failures()
    )
    assert report.ok, f"criterion {num} failed:\n{detail}"
    digest = hashlib.sha256(report.to_json(indent=2).encode()).hexdigest()
    assert digest == REPORT_SHA256[report.check], f"{report.check} report changed"


def test_every_check_has_a_pinned_report():
    assert sorted(REPORT_SHA256) == sorted(verify.CHECKS)


def test_c01_table1_type_a_rows():
    _assert_report(1, "valency distributions of A3..A6 match the reference "
                      "rows cell for cell", verify.run_check("table1"))


def test_c02_table2_exceptional_rows():
    _assert_report(2, "valency distributions of H3, F4, H4, E6 match the "
                      "reference rows", verify.run_check("table2"))


def test_c03_two_components_and_bounded_diameter():
    _assert_report(3, "every suite group: {w0} isolated, the rest connected "
                      "with diameter at most 3", verify.run_check("thm-diam"))


def test_c04_exact_hat_diameters():
    report = verify.run_check("thm-diam")
    exact = [a for a in report.details if "exact hat diameter" in a.claim]
    ok = all(a.ok for a in exact)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 4: hat diameter is 1 for "
          "A2 and A1xA1 (and its alias I2(3)) and 3 elsewhere")
    assert ok, [a.claim for a in exact if not a.ok]


def test_c05_generator_valency_bound():
    _assert_report(5, "generators have valency (|I|-1)/2 and every other "
                      "involution sits strictly below", verify.run_check("cor-highval"))


def test_c06_samecard_pairing():
    _assert_report(6, "for each generator the xr / rxr pairing swaps "
                      "neighbourhood membership, halving the vertex set",
                   verify.run_check("thm-samecard-pairing"))


def test_c07_valency_recursion_and_closed_forms():
    _assert_report(7, "delta recursion equals the graph-degree oracle for "
                      "n <= 8, closed forms agree, spot values 37/19/10 hold",
                   verify.run_check("thm-valency"))


def test_c08_pendant_classification():
    _assert_report(8, "valency-1 vertices equal the closed-form prediction "
                      "for all supported types (H4, E6 included)",
                   verify.run_check("thm-pendant"))
    _assert_report(8, "pendant count equals the rank everywhere",
                   verify.run_check("cor-lwn"))


def test_c09_dihedral_distributions():
    _assert_report(9, "I2(m) distributions are 0^1.1^2...floor(m/2)^2 for "
                      "m = 3..12", verify.run_check("lem-i2m"))


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
                   verify.run_check("thm-dn-cosets"))


def test_c12_infinite_group_evidence():
    _assert_report(12, "infinite dihedral distance <= 2 at radius 8/10; "
                       "rank-2 vs rank-3 universal common-neighbour dichotomy",
                   verify.run_check("lem-universal"))
    _assert_report(12, "product-of-infinite-factors ball checks",
                   verify.run_check("lem-product"))


def test_c13_property_fuzz():
    _assert_report(13, "1000-sample fuzz per suite group: length steps, the "
                       "additivity formula, rxr jumps, zero excess on "
                       "involutions", verify.run_check("lem-lendown"))
