import pytest
from hypothesis import given
from hypothesis import strategies as st

from patternstats.dyck import (
    InvalidDyckError,
    check_dyck,
    decompose,
    factor_count,
    heights,
    interior_uud_count,
    is_indecomposable,
    parse_dyck,
    reverse_path,
    semilength,
    uud_count,
)
from patternstats.generate import gen_dyck

from helpers import naive_duu, naive_interior_uud, naive_uud

dyck_words = st.integers(0, 6).flatmap(
    lambda n: st.sampled_from(sorted(gen_dyck(n))))


def test_parse_valid():
    assert parse_dyck("UD") == "UD"
    assert semilength(parse_dyck("UDUUDUDUUDUDUUDDDD")) == 9
    assert parse_dyck("") == ""
    assert parse_dyck("1100", up="1", down="0") == "UUDD"


def test_parse_errors_carry_position():
    with pytest.raises(InvalidDyckError) as info:
        parse_dyck("DU")
    assert info.value.position == 1
    with pytest.raises(InvalidDyckError) as info:
        parse_dyck("UDDU")
    assert info.value.position == 3
    with pytest.raises(InvalidDyckError) as info:
        parse_dyck("UU")
    assert info.value.position == 2
    with pytest.raises(InvalidDyckError) as info:
        parse_dyck("UXDD")
    assert info.value.position == 2
    with pytest.raises(InvalidDyckError):
        check_dyck("UDx")


def test_factor_count():
    assert factor_count("UUDD", "UUD") == 1
    assert factor_count("UDUDUD", "DU") == 2
    assert factor_count("UUUD", "UU") == 2  # overlaps count
    with pytest.raises(ValueError):
        factor_count("UD", "")


def test_uud_counts_known_values():
    assert uud_count("UUUDDDUD") == 1
    assert interior_uud_count("UUUDDDUD") == 1
    assert uud_count("UUUDDDUUDD") == 2
    assert interior_uud_count("UUUDDDUUDD") == 1
    assert uud_count("UUDD") == 1
    assert interior_uud_count("UUDD") == 0
    assert uud_count("") == 0


def test_interior_uud_bounds_exhaustive():
    for n in range(8):
        for d in gen_dyck(n):
            assert interior_uud_count(d) <= uud_count(d) <= interior_uud_count(d) + 1


def test_factor_counts_match_window_definitions_exhaustive():
    for n in range(11):
        for d in gen_dyck(n):
            assert uud_count(d) == naive_uud(d), d
            assert interior_uud_count(d) == naive_interior_uud(d), d
            assert factor_count(d, "DUU") == naive_duu(d), d


def test_reverse_path():
    assert reverse_path("UUDD") == "UUDD"
    assert reverse_path("UDUD") == "UDUD"
    assert reverse_path("UUDDUD") == "UDUUDD"


def test_reverse_path_involution_and_factor_swap_exhaustive():
    for n in range(8):
        for d in gen_dyck(n):
            r = reverse_path(d)
            check_dyck(r)
            assert reverse_path(r) == d
            assert factor_count(d, "DUU") == factor_count(r, "DDU")


def test_decompose():
    assert decompose("UDUUDD") == ["UD", "UUDD"]
    assert decompose("UUDUDD") == ["UUDUDD"]
    assert decompose("") == []


@given(dyck_words)
def test_decompose_parts_are_indecomposable_and_rejoin(d):
    parts = decompose(d)
    assert "".join(parts) == d
    for part in parts:
        assert is_indecomposable(part)


def test_is_indecomposable():
    assert not is_indecomposable("")
    assert not is_indecomposable("UDUD")
    assert is_indecomposable("UUDD")


def test_heights():
    assert heights("UUDD") == [1, 2, 1, 0]
    assert heights("") == []
