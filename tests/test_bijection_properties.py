"""Hypothesis properties of every bijection on words of size up to 200.

Dyck words are drawn by the cycle lemma: of the rotations of a word with
n Us and n + 1 Ds, exactly the one starting after the walk's first minimum
stays at or above its start until the final D, which is dropped.  Each
property checks a round trip and the statistic transport that ``verify``
states for the map, with statistics taken window by window.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternstats import bijections
from patternstats.bijections import (
    from_dyck_231,
    from_dyck_321,
    rewrite_312_to_321,
    rewrite_321_to_312,
    to_dyck_231,
    to_dyck_321,
    to_indec_dyck_321,
    uud_des_involution,
)
from patternstats.distributions import _ENCODINGS
from patternstats.dyck import (
    factor_count,
    interior_uud_count,
    is_indecomposable,
    semilength,
    uud_count,
)
from patternstats.perms import avoids_all, ltr_maxima

from helpers import naive_stat

MAX_SIZE = 200
STATS = ("asc", "des", "dasc", "ddes", "pk", "vl")


def _rotate(steps):
    h = low = cut = 0
    for i, s in enumerate(steps):
        h += 1 if s == "U" else -1
        if h < low:
            low, cut = h, i + 1
    return "".join(steps[cut:] + steps[:cut])[:-1]


dyck_words = st.integers(0, MAX_SIZE).flatmap(
    lambda n: st.permutations(["U"] * n + ["D"] * (n + 1))).map(_rotate)
bit_words = st.integers(0, MAX_SIZE - 1).flatmap(
    lambda k: st.text(alphabet="01", min_size=k, max_size=k))
few = settings(max_examples=50, deadline=None)


@few
@given(dyck_words)
def test_phi_round_trip_and_duu_is_pk(d):
    p = from_dyck_231(d)
    assert sorted(p) == list(range(1, semilength(d) + 1))
    assert to_dyck_231(p) == d
    assert factor_count(d, "DUU") == naive_stat("pk", p)


@few
@given(dyck_words)
def test_psi_round_trip_and_interior_uud_is_pk(d):
    p = from_dyck_321(d)
    assert to_dyck_321(p) == d
    assert interior_uud_count(d) == naive_stat("pk", p)


@few
@given(dyck_words)
def test_psi_hat_wraps_and_interior_uud_is_des(d):
    p = from_dyck_321(d)
    wrapped = to_indec_dyck_321(p)
    assert wrapped == "U" + d + "D"
    assert is_indecomposable(wrapped)
    assert interior_uud_count(wrapped) == naive_stat("des", p)


@few
@given(dyck_words)
def test_zeta_round_trip_keeps_maxima_and_peaks(d):
    p = from_dyck_321(d)
    q = rewrite_321_to_312(p)
    assert avoids_all(q, [(3, 1, 2)])
    assert rewrite_312_to_321(q) == p
    assert ltr_maxima(q) == ltr_maxima(p)
    assert naive_stat("pk", q) == naive_stat("pk", p)


@few
@given(dyck_words)
def test_iota_is_an_involution_swapping_populations(d):
    e = uud_des_involution(d)
    assert semilength(e) == semilength(d)
    assert uud_des_involution(e) == d
    s, t = uud_count(d), naive_stat("des", from_dyck_321(d))
    if s == t:
        assert e == d
    else:
        assert (uud_count(e), naive_stat("des", from_dyck_321(e))) == (t, s)


@pytest.mark.parametrize("tag", sorted(_ENCODINGS))
@few
@given(bits=bit_words)
def test_encoding_round_trip_and_word_statistics(tag, bits):
    basis, word_stats = _ENCODINGS[tag]
    p = getattr(bijections, f"decode_{tag}")(bits)
    assert sorted(p) == list(range(1, len(bits) + 2))
    assert getattr(bijections, f"encode_{tag}")(p) == bits
    assert avoids_all(p, basis)
    want = word_stats(bits)
    assert {k: naive_stat(k, p) for k in STATS} == want
