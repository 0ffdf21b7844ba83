import dataclasses
import hashlib
import itertools

import pytest

from patternstats.formulas import (
    FORMULAS,
    FormulaDomainError,
    UnknownFormulaError,
    binom,
    catalan,
    closed_form,
    closed_form_row,
    formula,
    formula_for,
    formula_ids,
)

from patternstats.perms import format_basis, normalize_basis
from patternstats.stats import STATS

from helpers import naive_dist


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(3, 4) == 0
    assert binom(-1, 0) == 0


def test_catalan():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_registry_shape():
    ids = formula_ids()
    assert len(ids) == 35
    assert "PK231" in ids and "ASC_213_312" in ids and "VL_132_321" in ids
    # the four series-backed cells are deliberately not closed forms
    for stat in ("dasc", "ddes"):
        assert formula_for(stat, [(1, 3, 2), (2, 1, 3)]) is None
        assert formula_for(stat, [(2, 1, 3), (2, 3, 1)]) is None


def test_spot_values_match_independent_oracle():
    cases = [
        ("PK231", 4, 1, naive_dist("pk", 4, [(2, 3, 1)])),
        ("ASC_213_312", 5, 2, naive_dist("asc", 5, [(2, 1, 3), (3, 1, 2)])),
        ("VL_132_321", 4, 1, naive_dist("vl", 4, [(1, 3, 2), (3, 2, 1)])),
    ]
    for fid, n, k, oracle in cases:
        assert closed_form(fid, n, k) == oracle.get(k, 0)
    assert closed_form("PK231", 4, 1) == 6
    assert closed_form("ASC_213_312", 5, 2) == 6
    assert closed_form("VL_132_321", 4, 1) == 5


def test_all_formulas_match_independent_oracle_small_n():
    for fid in formula_ids():
        spec = formula(fid)
        for n in range(spec.min_n, 7):
            want = naive_dist(spec.stat, n, spec.basis)
            got = closed_form_row(fid, n)
            assert got == want, (fid, n, got, want)


def test_zero_outside_support():
    assert closed_form("PK231", 4, 3) == 0
    assert closed_form("ASC_123_132", 5, 4) == 0
    assert closed_form("DASC_132_321", 10, 2) == 0


def test_domain_errors():
    with pytest.raises(FormulaDomainError):
        closed_form("DDES_123_132", 2, 0)
    with pytest.raises(FormulaDomainError):
        closed_form("VL_123_132", 1, 0)
    with pytest.raises(FormulaDomainError):
        closed_form("PK231", 4, -1)
    with pytest.raises(FormulaDomainError):
        closed_form_row("DASC_132_321", 2)
    with pytest.raises(UnknownFormulaError):
        closed_form("NOPE", 3, 0)


def test_formula_for_lookup():
    spec = formula_for("pk", [(2, 3, 1)])
    assert spec is not None and spec.id == "PK231"
    assert formula_for("pk", [(1, 2, 3)]) is None
    by_pair = formula_for("ddes", [(2, 1, 3), (3, 1, 2)])
    assert by_pair is not None and by_pair.id == "DDES_213_312"


def test_formula_for_answers_each_registered_cell_with_its_entry(
        monkeypatch):
    # of the 126 (statistic, one- or two-pattern basis) cells, the 35 it
    # answers and their ids, as the separate cell index answered them
    patterns = list(itertools.permutations((1, 2, 3)))
    bases = [(p,) for p in patterns] + list(itertools.combinations(patterns, 2))
    answers = {}
    for stat, key in itertools.product(STATS, bases):
        spec = formula_for(stat, key)
        if spec is not None:
            assert FORMULAS[spec.id] is spec
            assert (spec.stat, spec.basis) == (stat, normalize_basis(key))
            answers[stat, format_basis(key)] = spec.id
    assert (len(STATS) * len(bases), len(answers)) == (126, 35)
    assert _sha256(sorted(answers.items())) == (
        "6b13f297e36244aea5c597e3903176e25044ff4d67b8acaced10afb076ed42a8")
    # an entry replaced later is the one found
    replaced = dataclasses.replace(FORMULAS["PK231"], fn=lambda n, k: 0)
    monkeypatch.setitem(FORMULAS, "PK231", replaced)
    assert formula_for("pk", [(2, 3, 1)]) is replaced


def test_closed_form_values_are_pinned():
    # every id, min_n <= n <= 30 and 0 <= k <= n + 2, k past the row
    # included; recorded when each descent row over 123,132 and 132,321 had
    # an evaluator of its own
    values = [(fid, n, k, closed_form(fid, n, k))
              for fid, spec in FORMULAS.items()
              for n in range(spec.min_n, 31) for k in range(n + 3)]
    assert len(values) == 19377
    assert _sha256(values) == (
        "110b085265a24dfa2c219d6f476d4182b46f8eab1995c084ba3da8cf829405b2")


def test_row_sums_equal_class_sizes():
    for fid, size in [("PK231", lambda n: catalan(n)),
                      ("ASC_132_213", lambda n: 2 ** (n - 1)),
                      ("PK_123_132", lambda n: 2 ** (n - 1)),
                      ("DES_132_321", lambda n: binom(n, 2) + 1)]:
        spec = FORMULAS[fid]
        for n in range(max(spec.min_n, 1), 10):
            assert sum(closed_form_row(fid, n).values()) == size(n), (fid, n)
