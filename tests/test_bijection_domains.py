"""Each forward map decides its domain in the pass that computes its image.

A map that refuses an input asks its reference check to raise:
``_require_avoiding`` or ``_require_encodable`` for a permutation,
``check_dyck`` for a word.  These tests hold every map to its reference:
the same inputs accepted, and for each refusal the same exception type,
message and ``.pattern``.
"""

import itertools
import random

import pytest

from patternstats import bijections as b
from patternstats.bijections import PatternViolation
from patternstats.dyck import check_dyck
from patternstats.perms import contains

from helpers import random_dyck

# forward map -> (its reference check, the patterns the check is given)
FORWARD = {
    "to_dyck_231": (b._require_avoiding, ((2, 3, 1),)),
    "to_dyck_321": (b._require_avoiding, ((3, 2, 1),)),
    "to_indec_dyck_321": (b._require_avoiding, ((3, 2, 1),)),
    "rewrite_312_to_321": (b._require_avoiding, ((3, 1, 2),)),
    "rewrite_321_to_312": (b._require_avoiding, ((3, 2, 1),)),
    "encode_132_213": (b._require_encodable, ((1, 3, 2), (2, 1, 3))),
    "encode_213_231": (b._require_encodable, ((2, 1, 3), (2, 3, 1))),
    "encode_123_132": (b._require_encodable, ((1, 2, 3), (1, 3, 2))),
}

# not permutations, or permutations given as lists
MALFORMED = [(1, 1), (2, 3), (0, 1), (1, 2, 2), (2,), (1, 2, 4), (3, 3, 3),
             (4, 1, 2, 3, 5), [], [1], [2, 3, 1], [3, 1, 2], [1, 3, 2], [2, 1]]


def _outcome(fn, *args):
    """None if ``fn`` accepts ``args``, else what it raises."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "pattern", None)
    return None


@pytest.mark.parametrize("name", FORWARD)
def test_each_map_refuses_exactly_what_its_reference_refuses(name):
    fn = getattr(b, name)
    check, patterns = FORWARD[name]
    perms = [p for n in range(8) for p in itertools.permutations(range(1, n + 1))]
    accepted = 0
    for p in perms + MALFORMED:
        want = _outcome(check, p, *patterns)
        assert _outcome(fn, p) == want, p
        if want is None:
            accepted += 1
            assert fn(p) == fn(tuple(p))
    assert accepted > 0


@pytest.mark.parametrize("inverse", [b.from_dyck_231, b.from_dyck_321],
                         ids=["231", "321"])
def test_phi_inverse_refuses_exactly_the_words_check_dyck_refuses(inverse):
    # and so does the inverse of psi, on blanks too, which its block split
    # would take as block ends
    words = ["".join(letters) for m in range(11)
             for letters in itertools.product("UDx", repeat=m)]
    words += [" ", "U D", "UD UD", "UU\tDD", "UDU\nD", "U DUD"]
    for d in words:
        assert _outcome(inverse, d) == _outcome(check_dyck, d), d


def test_check_bits_accepts_exactly_the_words_over_0_and_1():
    for m in range(7):
        for letters in itertools.product("01x2", repeat=m):
            bits = "".join(letters)
            ok = all(ch in "01" for ch in bits)
            assert (_outcome(b.check_bits, bits) is None) == ok, bits


N = 3000


def _dyck_word(rng):
    return random_dyck(rng, N)


def _bit_word(rng):
    return format(rng.getrandbits(N - 1), f"0{N - 1}b")


# forward map -> (a seeded member of its domain, the map's inverse)
LARGE = {
    "to_dyck_231": (lambda rng: b.from_dyck_231(_dyck_word(rng)), b.from_dyck_231),
    "to_dyck_321": (lambda rng: b.from_dyck_321(_dyck_word(rng)), b.from_dyck_321),
    "to_indec_dyck_321": (lambda rng: b.from_dyck_321(_dyck_word(rng)),
                          lambda w: b.from_dyck_321(w[1:-1])),
    "rewrite_312_to_321": (
        lambda rng: b.rewrite_321_to_312(b.from_dyck_321(_dyck_word(rng))),
        b.rewrite_321_to_312),
    "rewrite_321_to_312": (lambda rng: b.from_dyck_321(_dyck_word(rng)),
                           b.rewrite_312_to_321),
    "encode_132_213": (lambda rng: b.decode_132_213(_bit_word(rng)), b.decode_132_213),
    "encode_213_231": (lambda rng: b.decode_213_231(_bit_word(rng)), b.decode_213_231),
    "encode_123_132": (lambda rng: b.decode_123_132(_bit_word(rng)), b.decode_123_132),
}


def _plant(p, pattern, basis):
    """``p`` with two of its last ten entries swapped, so that it contains
    ``pattern`` and no pattern listed before it in ``basis``."""
    earlier = basis[:basis.index(pattern)]
    for i, j in itertools.combinations(range(len(p) - 10, len(p)), 2):
        q = list(p)
        q[i], q[j] = q[j], q[i]
        q = tuple(q)
        if contains(q, pattern) and not any(contains(q, e) for e in earlier):
            return q
    raise AssertionError(f"no swap near the end plants {pattern}")


@pytest.mark.parametrize("name", FORWARD)
def test_large_members_round_trip_and_a_late_pattern_is_named(name):
    fn = getattr(b, name)
    build, inverse = LARGE[name]
    member = build(random.Random(N))
    assert len(member) == N
    assert inverse(fn(member)) == member
    _, basis = FORWARD[name]
    for pattern in basis:
        with pytest.raises(PatternViolation) as info:
            fn(_plant(member, pattern, basis))
        assert info.value.pattern == pattern
