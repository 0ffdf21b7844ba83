import random
import subprocess
import sys

import pytest

from patternstats import bijections
from patternstats.bijections import (
    EmptyPermutationError,
    InvalidBitsError,
    InvariantError,
    PatternViolation,
    decode_123_132,
    decode_132_213,
    decode_213_231,
    encode_123_132,
    encode_132_213,
    encode_213_231,
    from_dyck_231,
    from_dyck_321,
    rewrite_312_to_321,
    rewrite_321_to_312,
    to_dyck_231,
    to_dyck_321,
    to_indec_dyck_321,
    uud_des_involution,
)
from patternstats.dyck import (
    factor_count,
    interior_uud_count,
    is_indecomposable,
    semilength,
    uud_count,
)
from patternstats.generate import gen_bits, gen_dyck
from patternstats.perms import avoids_all, ltr_maxima, parse_perm

from helpers import naive_class, naive_stat, random_dyck


def test_to_dyck_231_base_cases():
    assert to_dyck_231(()) == ""
    assert to_dyck_231((1,)) == "UD"
    assert to_dyck_231((2, 1)) == "UUDD"
    assert to_dyck_231((1, 2)) == "UDUD"


def test_to_dyck_231_rejects_domain_violation():
    with pytest.raises(PatternViolation) as info:
        to_dyck_231((2, 3, 1))
    assert info.value.pattern == (2, 3, 1)


def test_dyck_231_roundtrip_and_peak_transport():
    for n in range(8):
        for p in naive_class(n, [(2, 3, 1)]):
            d = to_dyck_231(p)
            assert semilength(d) == n
            assert from_dyck_231(d) == p
            duu = factor_count(d, "DUU") if d else 0
            assert duu == naive_stat("pk", p)


def test_dyck_231_large_sizes():
    p = tuple(range(3000, 0, -1))
    d = to_dyck_231(p)
    assert d == "U" * 3000 + "D" * 3000
    assert from_dyck_231(d) == p
    rng = random.Random(2018)
    for _ in range(20):
        d = random_dyck(rng, 500)
        p = from_dyck_231(d)
        assert sorted(p) == list(range(1, 501))
        assert to_dyck_231(p) == d
        assert factor_count(d, "DUU") == naive_stat("pk", p)


def test_to_dyck_321_known_values():
    assert to_dyck_321(parse_perm("617238459")) == "UDUUDUDUUDUDUUDDDD"
    assert to_dyck_321((1, 2, 3, 4)) == "UUUUDDDD"
    assert from_dyck_321("UUDD") == (1, 2)
    with pytest.raises(PatternViolation):
        to_dyck_321((3, 2, 1))


def test_dyck_321_roundtrip_and_transports():
    for n in range(8):
        for p in naive_class(n, [(3, 2, 1)]):
            d = to_dyck_321(p)
            assert semilength(d) == n
            assert from_dyck_321(d) == p
            assert interior_uud_count(d) == naive_stat("pk", p)
            wrapped = to_indec_dyck_321(p)
            assert is_indecomposable(wrapped)
            assert semilength(wrapped) == n + 1
            assert interior_uud_count(wrapped) == naive_stat("des", p)


def test_psi_hat_base_case():
    assert to_indec_dyck_321((1,)) == "UUDD"
    assert to_indec_dyck_321(()) == "UD"


def test_zeta_known_values():
    assert rewrite_312_to_321((1, 2, 3)) == (1, 2, 3)
    assert rewrite_312_to_321((1, 4, 3, 2)) == (1, 4, 2, 3)
    with pytest.raises(PatternViolation):
        rewrite_312_to_321((3, 1, 2))
    with pytest.raises(PatternViolation):
        rewrite_321_to_312((3, 2, 1))


def test_zeta_roundtrip_preserves_maxima_and_peaks():
    for n in range(8):
        for p in naive_class(n, [(3, 1, 2)]):
            q = rewrite_312_to_321(p)
            assert avoids_all(q, [(3, 2, 1)])
            assert ltr_maxima(q) == ltr_maxima(p)
            assert naive_stat("pk", q) == naive_stat("pk", p)
            assert rewrite_321_to_312(q) == p


def test_involution_known_pair():
    d = "UDUDUDUUDUUUUDUDDDDD"
    e = uud_des_involution(d)
    assert e == "UUDUUUUDUUUUDDDDDDDD"
    assert uud_count(d) == 2 and uud_count(e) == 3
    assert uud_des_involution(e) == d


def test_involution_boundary_and_fixed_cases():
    # the all-UD word and the pyramid trade places
    assert uud_des_involution("UDUD") == "UUDD"
    assert uud_des_involution("UUDD") == "UDUD"
    assert uud_des_involution("UDUDUD") == "UUUDDD"
    # uud count 1 with one descent in the preimage: fixed
    assert uud_des_involution("UDUUDD") == "UDUUDD"
    assert uud_des_involution("") == ""
    assert uud_des_involution("UD") == "UD"


def test_involution_is_involution_exhaustive():
    from patternstats.stats import des

    for n in range(8):
        for d in gen_dyck(n):
            e = uud_des_involution(d)
            assert uud_des_involution(e) == d
            s, t = uud_count(d), des(from_dyck_321(d))
            if s == t:
                assert e == d
            else:
                assert (uud_count(e), des(from_dyck_321(e))) == (t, s)


def test_involution_equals_the_map_that_built_the_preimage(monkeypatch):
    # the reference takes t = des(from_dyck_321(d)), as the map did before
    # it read t off U d D; only t differs between the two
    from patternstats.stats import des

    words = [d for n in range(11) for d in gen_dyck(n)]
    got = [uud_des_involution(d) for d in words]
    wrapped = []

    def preimage_des(w):
        wrapped.append(w)
        return des(from_dyck_321(w[1:-1]))

    monkeypatch.setattr(bijections, "interior_uud_count", preimage_des)
    assert [uud_des_involution(d) for d in words] == got
    assert wrapped == ["U" + d + "D" for d in words]


def test_encode_132_213_known_values():
    assert encode_132_213((3, 2, 1)) == "00"
    assert encode_132_213((1, 2)) == "1"
    assert decode_132_213("10") == (2, 3, 1)
    assert decode_132_213("") == (1,)
    with pytest.raises(PatternViolation):
        encode_132_213((1, 3, 2))
    with pytest.raises(InvalidBitsError):
        decode_132_213("10x")


def test_encode_213_231_known_values():
    assert encode_213_231((3, 1, 2)) == "01"
    assert encode_213_231((1, 2, 3, 4)) == "111"
    assert encode_213_231((4, 3, 2, 1)) == "000"
    assert decode_213_231("01") == (3, 1, 2)
    with pytest.raises(PatternViolation):
        encode_213_231((2, 1, 3))


def test_encode_123_132_known_values():
    assert encode_123_132(parse_perm("653241")) == "11001"
    assert encode_123_132((1,)) == ""
    assert decode_123_132("11001") == parse_perm("653241")
    with pytest.raises(PatternViolation):
        encode_123_132((1, 2, 3))


@pytest.mark.parametrize("encode,decode,basis", [
    (encode_132_213, decode_132_213, [(1, 3, 2), (2, 1, 3)]),
    (encode_213_231, decode_213_231, [(2, 1, 3), (2, 3, 1)]),
    (encode_123_132, decode_123_132, [(1, 2, 3), (1, 3, 2)]),
])
def test_encodings_are_bijections(encode, decode, basis):
    for n in range(1, 9):
        seen = set()
        for bits in gen_bits(n - 1):
            p = decode(bits)
            assert avoids_all(p, basis)
            assert encode(p) == bits
            seen.add(p)
        assert len(seen) == 2 ** (n - 1)
        assert seen == set(map(tuple, naive_class(n, basis)))


def test_encode_123_132_never_reduces(monkeypatch):
    # the encoder works on the original values; reduce_word is only for
    # the message of a broken invariant
    def refuse(word):
        raise AssertionError("reduce_word called")
    monkeypatch.setattr(bijections, "reduce_word", refuse)
    for m in range(12):
        for bits in gen_bits(m):
            assert encode_123_132(decode_123_132(bits)) == bits


@pytest.mark.parametrize("encode,decode", [
    (encode_132_213, decode_132_213),
    (encode_213_231, decode_213_231),
    (encode_123_132, decode_123_132),
])
def test_encodings_roundtrip_at_n_3000(encode, decode):
    rng = random.Random(3000)
    for _ in range(3):
        bits = "".join(rng.choice("01") for _ in range(2999))
        assert encode(decode(bits)) == bits


@pytest.mark.parametrize("encode,decode", [
    (encode_132_213, decode_132_213),
    (encode_213_231, decode_213_231),
    (encode_123_132, decode_123_132),
])
def test_encodings_refuse_the_empty_permutation(encode, decode):
    # the empty word is the image of (1,), so () has no word of its own
    assert decode("") == (1,) and encode((1,)) == ""
    with pytest.raises(EmptyPermutationError, match="n >= 1"):
        encode(())


@pytest.mark.parametrize("fn,arg,patch", [
    # the two branches of iota, each fed a wrong descent count
    (uud_des_involution, "UUDD", ("interior_uud_count", lambda w: 2)),
    (uud_des_involution, "UUDUDD", ("interior_uud_count", lambda w: 0)),
    # the encoders, each fed a permutation outside its domain
    (encode_213_231, (2, 1, 3), ("_require_avoiding", lambda p, *pats: p)),
    (encode_123_132, (1, 2, 3), ("_require_avoiding", lambda p, *pats: p)),
])
def test_broken_invariants_raise_invariant_error(monkeypatch, fn, arg, patch):
    monkeypatch.setattr(bijections, *patch)
    with pytest.raises(InvariantError):
        fn(arg)


def test_encode_123_132_invariant_message_names_the_reduced_rest(monkeypatch):
    # after one step the rest is (2, 3, 4), reduced to (1, 2, 3)
    monkeypatch.setattr(bijections, "_require_avoiding", lambda p, *pats: p)
    with pytest.raises(InvariantError) as err:
        encode_123_132((2, 3, 4, 1))
    assert str(err.value) == "1 is not in the last two positions of (1, 2, 3)"


def test_invariants_still_checked_under_optimize():
    code = ("from patternstats import bijections as b\n"
            "b._require_avoiding = lambda p, *pats: p\n"
            "try:\n"
            "    b.encode_213_231((2, 1, 3))\n"
            "except b.InvariantError:\n"
            "    print('raised')\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "raised"
