import itertools

import pytest

from patternstats import distributions, generate
from patternstats.dyck import check_dyck, is_indecomposable
from patternstats.formulas import binom, catalan
from patternstats.generate import (
    PATTERNS3,
    CapExceededError,
    Caps,
    UnsupportedBasisError,
    gen_all,
    gen_bits,
    gen_class,
    gen_dyck,
    gen_indec,
    structured_bases,
)
from patternstats.perms import avoids_all, normalize_basis

from helpers import naive_class


def test_gen_all_counts_and_order():
    assert list(gen_all(0)) == [()]
    perms3 = list(gen_all(3))
    assert len(perms3) == 6
    assert perms3 == sorted(perms3)
    assert sum(1 for _ in gen_all(8)) == 40320


def test_gen_all_cap():
    with pytest.raises(CapExceededError):
        next(gen_all(11))
    assert sum(1 for _ in gen_all(4, cap=4)) == 24
    with pytest.raises(CapExceededError):
        next(gen_all(5, cap=4))
    with pytest.raises(ValueError):
        next(gen_all(-1))


def test_gen_dyck_counts_and_validity():
    for n in range(10):
        words = list(gen_dyck(n))
        assert len(words) == catalan(n)
        assert len(set(words)) == len(words)
        assert words == sorted(words)
        for d in words:
            check_dyck(d)
    assert list(gen_dyck(0)) == [""]


def test_gen_indec():
    assert list(gen_indec(0)) == []
    assert list(gen_indec(1)) == ["UD"]
    for n in range(1, 10):
        words = list(gen_indec(n))
        assert len(words) == catalan(n - 1)
        for d in words:
            assert is_indecomposable(d)


def test_gen_bits():
    assert list(gen_bits(0)) == [""]
    assert list(gen_bits(1)) == ["0", "1"]
    assert len(list(gen_bits(4))) == 16
    with pytest.raises(CapExceededError):
        next(gen_bits(31))


def test_gen_class_known_sizes():
    assert sum(1 for _ in gen_class(4, [(3, 2, 1)])) == 14
    assert sum(1 for _ in gen_class(5, [(2, 1, 3), (3, 1, 2)])) == 16
    assert sum(1 for _ in gen_class(5, [(1, 3, 2), (3, 2, 1)])) == 11
    assert binom(5, 2) + 1 == 11


def test_gen_class_123_321_dies_out():
    for n in (5, 6):
        assert sum(1 for _ in gen_class(n, [(1, 2, 3), (3, 2, 1)])) == 0


def test_structured_agrees_with_filter_and_naive():
    for key in structured_bases():
        for n in range(7):
            structured = sorted(gen_class(n, key, method="structured"))
            assert structured == sorted(gen_class(n, key, method="filter"))
            assert len(set(structured)) == len(structured)
            assert structured == sorted(naive_class(n, key))


def test_gen_class_method_errors():
    with pytest.raises(UnsupportedBasisError):
        next(gen_class(3, [(1, 2, 3)], method="structured"))
    with pytest.raises(ValueError):
        next(gen_class(3, [(1, 2, 3)], method="bogus"))


def test_structured_bases_registered():
    keys = structured_bases()
    assert normalize_basis([(2, 3, 1)]) in keys
    assert normalize_basis([(3, 2, 1)]) in keys
    assert len(keys) == 7


# -- the filter route's shared containment tables -----------------------------

def _scan(n, key):
    return [p for p in gen_all(n) if avoids_all(p, key)]


def test_filter_table_matches_scan_for_every_length3_basis():
    generate.clear_tables()
    bases = [key for r in range(1, 7)
             for key in itertools.combinations(PATTERNS3, r)]
    assert len(bases) == 63
    for n in range(8):
        for key in bases:
            assert list(gen_class(n, key, method="filter")) == _scan(n, key)


def test_filter_fallback_for_other_pattern_lengths():
    generate.clear_tables()
    for key in ([(2, 1)], [(1, 2), (3, 2, 1)], [(2, 1, 4, 3)],
                [(1, 3, 2), (4, 3, 2, 1)]):
        for n in range(7):
            got = list(gen_class(n, key, method="filter"))
            assert got == _scan(n, normalize_basis(key))
            assert got == naive_class(n, key)
    assert not generate._tables


def test_filter_cap_checked_on_a_warm_table():
    generate.clear_tables()
    assert sum(1 for _ in gen_class(6, [(1, 2, 3)], method="filter")) == 132
    with pytest.raises(CapExceededError, match="permutation size 6 exceeds cap 5"):
        distributions.class_size(6, [(1, 2, 3)], method="filter",
                                 caps=Caps(perm=5))


def test_clear_caches_empties_the_tables():
    list(gen_class(5, [(1, 3, 2)], method="filter"))
    assert generate._tables
    distributions.clear_caches()
    assert not generate._tables


def test_filter_independent_of_request_order():
    a, b = ((1, 2, 3),), ((1, 3, 2),)

    def run(order):
        generate.clear_tables()
        rows = {key: list(gen_class(6, key, method="filter")) for key in order}
        return rows, bytes(generate._tables[6][0])

    assert run([a, b]) == run([b, a])
