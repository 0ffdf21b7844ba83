import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from patternstats import perms
from patternstats.perms import (
    InvalidPermError,
    avoids_all,
    complement,
    contains,
    direct_sum,
    format_perm,
    ltr_maxima,
    SYMMETRIES,
    normalize_basis,
    parse_basis,
    parse_perm,
    reduce_word,
    reverse,
    skew_sum,
)

from helpers import naive_contains

perm_of = lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
small_perms = st.integers(0, 7).flatmap(perm_of)


def test_reduce_known_values():
    assert reduce_word((8, 7, 4, 5)) == (4, 3, 1, 2)
    assert reduce_word((1,)) == (1,)
    assert reduce_word((2, 4, 6)) == (1, 2, 3)
    assert reduce_word(()) == ()


def test_reduce_rejects_duplicates():
    with pytest.raises(InvalidPermError):
        reduce_word((3, 3, 1))


@given(st.lists(st.integers(-50, 50), max_size=9, unique=True))
def test_reduce_idempotent(word):
    once = reduce_word(word)
    assert reduce_word(once) == once


def test_parse_and_format():
    assert parse_perm("231") == (2, 3, 1)
    assert parse_perm("") == ()
    assert format_perm((6, 1, 7, 2, 3, 8, 4, 5, 9)) == "617238459"
    with pytest.raises(InvalidPermError):
        parse_perm("221")
    with pytest.raises(InvalidPermError):
        parse_perm("x1")
    assert parse_perm("2,3,1") == (2, 3, 1)
    assert format_perm((2, 3, 1)) == "231"
    p = (10, *range(1, 10))
    assert format_perm(p) == "10,1,2,3,4,5,6,7,8,9"
    assert parse_perm(format_perm(p)) == p
    for bad in ("1,,2", "1,3", ",", "1, 2", "2,x,1"):
        with pytest.raises(InvalidPermError):
            parse_perm(bad)


def test_contains_known_values():
    assert contains(parse_perm("18274635"), (4, 3, 1, 2))
    assert not contains((1, 2, 3), (2, 1))
    assert not contains(parse_perm("617238459"), (3, 2, 1))


def test_contains_refuses_a_pattern_that_is_not_a_permutation():
    for host, pattern in [((3, 2, 1), (2, 2, 1)), ((1, 2), (0,))]:
        with pytest.raises(InvalidPermError):
            contains(host, pattern)
    with pytest.raises(InvalidPermError):
        avoids_all((3, 2, 1), [(2, 2, 1)])
    # a valid pattern with no length-3 scan still goes through the search
    assert contains((2, 5, 1, 4, 3), (2, 4, 1, 3))
    assert not contains((1, 2, 3, 4, 5), (2, 4, 1, 3))
    assert not contains((2, 1), (2, 4, 1, 3))


def test_contains_matches_naive_for_length3_patterns():
    patterns = list(itertools.permutations((1, 2, 3)))
    for n in range(7):
        for host in itertools.permutations(range(1, n + 1)):
            for pat in patterns:
                assert contains(host, pat) == naive_contains(host, pat), (host, pat)


@given(perm_of(7), st.permutations((1, 2, 3, 4)).map(tuple))
def test_contains_matches_naive_for_length4_patterns(host, pat):
    assert contains(host, pat) == naive_contains(host, pat)


def test_avoids_all():
    basis = [(2, 1, 3), (2, 3, 1)]
    assert avoids_all((3, 1, 2), basis)
    assert not avoids_all((2, 3, 1), basis)
    assert avoids_all((), basis)


def test_reverse_complement_values():
    assert reverse((1, 2, 3)) == (3, 2, 1)
    assert complement((1, 3, 2)) == (3, 1, 2)
    assert reverse(complement((2, 3, 1))) == (3, 1, 2)


@given(small_perms)
def test_reverse_complement_involutions_commute(p):
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p
    assert reverse(complement(p)) == complement(reverse(p))


def test_containment_respects_symmetries_exhaustively():
    patterns = list(itertools.permutations((1, 2, 3)))
    for n in range(6):
        for host in itertools.permutations(range(1, n + 1)):
            for pat in patterns:
                hit = contains(host, pat)
                assert hit == contains(reverse(host), reverse(pat))
                assert hit == contains(complement(host), complement(pat))


def test_symmetries_are_the_reverse_complement_involutions():
    assert list(SYMMETRIES) == ["r", "c", "rc"]
    for host in itertools.permutations(range(1, 6)):
        assert SYMMETRIES["r"](host) == reverse(host)
        assert SYMMETRIES["c"](host) == complement(host)
        assert SYMMETRIES["rc"](host) == complement(reverse(host))
        for symmetry in SYMMETRIES.values():
            assert symmetry(symmetry(host)) == host


def test_parse_basis():
    assert parse_basis("312,213") == ((2, 1, 3), (3, 1, 2))
    assert parse_basis("1") == ((1,),)
    with pytest.raises(InvalidPermError):
        parse_basis("2x1")
    with pytest.raises(perms.BasisError, match="length >= 1"):
        parse_basis("231,")
    with pytest.raises(perms.BasisError,
                       match="^duplicate patterns in basis: 132,132$"):
        parse_basis("132,132")


def test_sums():
    assert direct_sum((2, 1), (1,)) == (2, 1, 3)
    assert skew_sum((1,), (1, 2)) == (3, 1, 2)
    assert skew_sum((1, 2), (1, 2)) == (3, 4, 1, 2)
    assert direct_sum((), (2, 1)) == (2, 1)


@given(perm_of(3), perm_of(2), perm_of(3))
def test_sums_associate(a, b, c):
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
    assert skew_sum(skew_sum(a, b), c) == skew_sum(a, skew_sum(b, c))


def test_ltr_maxima():
    assert ltr_maxima(parse_perm("32658741")) == [(1, 3), (3, 6), (5, 8)]
    assert ltr_maxima((1, 2, 3)) == [(1, 1), (2, 2), (3, 3)]
    assert ltr_maxima(parse_perm("617238459")) == [(1, 6), (3, 7), (6, 8), (9, 9)]
    assert ltr_maxima(()) == []


def test_normalize_basis():
    key = normalize_basis([(3, 1, 2), (2, 1, 3)])
    assert key == ((2, 1, 3), (3, 1, 2))
    with pytest.raises(perms.BasisError):
        normalize_basis([])
    with pytest.raises(perms.BasisError):
        normalize_basis([(1, 2), (1, 2)])
    with pytest.raises(perms.BasisError):
        normalize_basis([()])


def test_normalize_basis_refuses_basis_text():
    # text is read by parse_basis; taken as an iterable it would read "231"
    # as three one-entry patterns and fail on the first
    for text in ("231", "213,312", ""):
        with pytest.raises(perms.BasisError, match="perms.parse_basis"):
            normalize_basis(text)
