"""Acceptance suite: one test per release criterion, at full stated ranges.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output).  All comparisons are exact; the only tolerances here
are wall-clock budgets on the two timed runs.
"""

import json
import os
import time

import pytest

from patternstats import oeis
from patternstats.bijections import from_dyck_321, uud_des_involution
from patternstats.cli import main
from patternstats.distributions import verify_all
from patternstats.dyck import uud_count
from patternstats.formulas import binom, catalan
from patternstats.generate import gen_class
from patternstats.stats import des


def _criterion(name, reports):
    failures = [r for r in reports if not r.passed]
    for r in failures:
        print(f"ACCEPTANCE FAIL {name}: {r.name}: {r.failure}")
    if not failures:
        checked = sum(r.checked for r in reports)
        print(f"ACCEPTANCE PASS {name} ({checked} comparisons)")
    assert not failures


def test_c01_cardinalities():
    start = time.monotonic()
    reports = verify_all(9, selection="CARD_SINGLE_CATALAN")
    reports += verify_all(10, selection="CARD_PAIRS")
    reports += verify_all(8, selection="CARD_123_321_EMPTY")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"cardinality check took {elapsed:.1f}s"
    _criterion("criterion-01 cardinalities", reports)


def test_c02_peaks_over_231_closed_form():
    _criterion("criterion-02 peak formula for 231-avoiders",
               verify_all(10, selection="FORMULA_PK231"))


def test_c03_peak_equality_312_321_and_rewriting():
    reports = verify_all(9, selection=["PK_312_EQ_321", "ZETA_PROPERTIES"])
    _criterion("criterion-03 peak equality of 312/321 classes", reports)


def test_c04_peak_series_over_321():
    _criterion("criterion-04 peak series for 321-avoiders",
               verify_all(10, selection="SERIES_PK321_ORACLE"))


def test_c05_uud_descent_equidistribution_and_involution():
    reports = verify_all(10, selection="UUD_DES_EQUIDISTRIBUTION")
    reports += verify_all(8, selection="IOTA_INVOLUTION")
    ok = all(r.passed for r in reports)
    d = "UDUDUDUUDUUUUDUDDDDD"
    e = uud_des_involution(d)
    pair_ok = (e == "UUDUUUUDUUUUDDDDDDDD"
               and uud_count(d) == 2 and des(from_dyck_321(d)) == 3
               and uud_count(e) == 3 and des(from_dyck_321(e)) == 2)
    print(f"ACCEPTANCE {'PASS' if ok and pair_ok else 'FAIL'} "
          "criterion-05 UUD/descent equidistribution and involution")
    assert ok and pair_ok


def test_c06_indecomposable_interior_uud_matches_descents():
    _criterion("criterion-06 interior UUD over indecomposables",
               verify_all(9, selection="INTERIOR_UUD_INDEC_DES"))


def test_c07_indecomposable_uud_series_identity():
    _criterion("criterion-07 indecomposable UUD series identity",
               verify_all(10, selection="SERIES_B_PK231"))


def test_c08_all_closed_forms_match_oracle():
    pair_formula_checks = [
        f"FORMULA_{fid}" for fid in (
            "ASC_213_312", "DES_213_312", "DASC_213_312", "DDES_213_312",
            "PK_213_312", "VL_213_312",
            "ASC_132_213", "DES_132_213", "PK_132_213", "VL_132_213",
            "ASC_213_231", "DES_213_231", "PK_213_231", "VL_213_231",
            "ASC_123_132", "DES_123_132", "DASC_123_132", "DDES_123_132",
            "PK_123_132", "VL_123_132",
            "ASC_132_321", "DES_132_321", "DASC_132_321", "DDES_132_321",
            "PK_132_321", "VL_132_321",
        )
    ]
    _criterion("criterion-08 two-pattern closed forms",
               verify_all(10, selection=pair_formula_checks))


def test_c09_rational_series_for_132_213():
    _criterion("criterion-09 rational series for double ascents/descents",
               verify_all(10, selection="SERIES_DDES_132_213_ORACLE"))


def test_c10_bijection_transport_suite():
    reports = verify_all(9, selection=[
        "PHI231_TRANSPORT", "PSI321_TRANSPORT", "PSI_HAT_DES_TRANSPORT",
        "ENC_132_213_TRANSPORT", "ENC_213_231_TRANSPORT",
        "ENC_123_132_TRANSPORT",
    ])
    _criterion("criterion-10 bijection transport suite", reports)


def test_c11_symmetry_identities():
    reports = verify_all(8, selection=[
        "SYMMETRY_ASC_DES", "SYMMETRY_DASC_DDES", "SYMMETRY_PK_VL"])
    _criterion("criterion-11 reverse/complement symmetry identities", reports)


@pytest.mark.skipif(os.environ.get("PATTERNSTATS_ONLINE") != "1",
                    reason="contacts oeis.org; set PATTERNSTATS_ONLINE=1")
def test_c12_oeis_cross_checks(tmp_path):
    sequences = ("A091894", "A001263", "A007318", "A076791", "A034867",
                 "A034839", "A093560", "A119462", "A299927")
    try:
        results = {sid: oeis.check_sequence(sid, 12, cache=tmp_path)
                   for sid in sequences}
    except oeis.OeisOfflineError:
        print("ACCEPTANCE SKIP criterion-12 OEIS cross-check (offline)")
        pytest.skip("network unavailable")
    bad = {sid: r for sid, r in results.items()
           if not r.full_match or r.matched_prefix < 15}
    for sid, r in bad.items():
        print(f"ACCEPTANCE FAIL criterion-12 {sid}: "
              f"matched {r.matched_prefix}, mismatch {r.first_mismatch}")
    if not bad:
        print("ACCEPTANCE PASS criterion-12 OEIS cross-checks "
              f"({len(results)} sequences, >=15 terms each)")
    assert not bad


def test_c13_performance_and_determinism(capsys, tmp_path):
    start = time.monotonic()
    reports = verify_all(8)
    elapsed8 = time.monotonic() - start
    assert all(r.passed for r in reports)
    assert elapsed8 < 120.0, f"verify --all --max-n 8 took {elapsed8:.1f}s"

    start = time.monotonic()
    reports = verify_all(9)
    elapsed9 = time.monotonic() - start
    assert all(r.passed for r in reports)
    assert elapsed9 < 600.0, f"verify --all --max-n 9 took {elapsed9:.1f}s"

    # the second run follows a capped run in the same process, and
    # reports what the first did
    argv = ["verify", "--all", "--max-n", "6", "--format", "json"]
    capped = tmp_path / "caps.cfg"
    capped.write_text("structured_cap = 5\n")
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["--config", str(capped), *argv]) == 2
    assert "class size 6 exceeds cap 5" in capsys.readouterr().err
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second, "reports differ between runs"
    assert json.loads(first)["passed"] is True
    print(f"ACCEPTANCE PASS criterion-13 performance "
          f"(max-n 8: {elapsed8:.1f}s, max-n 9: {elapsed9:.1f}s, "
          "outputs byte-identical across runs and a capped run)")


def test_class_equidistribution_132_213_vs_213_231():
    # the one nontrivial coincidence between two-pattern classes
    _criterion("extra st-Wilf coincidence of the two 2^(n-1) classes",
               verify_all(9, selection="CLASS_132_213_EQ_213_231"))


def test_structured_generators_agree_with_filter():
    _criterion("extra structured generators vs filter",
               verify_all(9, selection="STRUCTURED_MATCHES_FILTER"))


def test_class_sizes_sanity():
    assert sum(1 for _ in gen_class(10, [(1, 3, 2), (3, 2, 1)])) == binom(10, 2) + 1
    assert sum(1 for _ in gen_class(9, [(2, 3, 1)])) == catalan(9)
