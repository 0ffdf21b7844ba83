import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from patternstats.perms import SYMMETRIES, parse_perm
from patternstats.stats import (
    FACTORS,
    STAT_IMAGE,
    STATS,
    STEP_GAINS,
    all_stats,
    consec3_count,
    stat,
    up_down,
    word_stats,
)

from helpers import naive_stat

perms_to_200 = st.integers(0, 200).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple))


def test_known_values():
    assert stat("pk", (1, 3, 2)) == 1
    p = parse_perm("617238459")
    assert stat("des", p) == 3
    assert stat("pk", p) == 2
    assert stat("vl", p) == 3


def test_empty_and_singleton_are_zero():
    for kind in STATS:
        assert stat(kind, ()) == 0
        assert stat(kind, (1,)) == 0
    assert all_stats(()) == all_stats((1,)) == dict.fromkeys(STATS, 0)


def test_unknown_stat():
    with pytest.raises(ValueError):
        stat("maj", (1, 2))


@given(perms_to_200)
def test_all_stats_matches_definitions(p):
    bundle = all_stats(p)
    assert list(bundle) == list(STATS)
    for kind in STATS:
        assert bundle[kind] == stat(kind, p) == naive_stat(kind, p)
    assert len(up_down(p)) == max(len(p) - 1, 0)


def test_consec3_known_values():
    assert consec3_count((1, 2, 3, 4, 5, 6), (1, 2, 3)) == 4
    p = parse_perm("617238459")
    assert consec3_count(p, (1, 3, 2)) + consec3_count(p, (2, 3, 1)) == 2
    assert consec3_count((2, 1), (1, 2, 3)) == 0
    with pytest.raises(ValueError):
        consec3_count((1, 2, 3), (1, 2))


def test_window_identities_exhaustive():
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            s = all_stats(p)
            assert s["pk"] == consec3_count(p, (1, 3, 2)) + consec3_count(p, (2, 3, 1))
            assert s["vl"] == consec3_count(p, (2, 1, 3)) + consec3_count(p, (3, 1, 2))
            assert s["dasc"] == consec3_count(p, (1, 2, 3))
            assert s["ddes"] == consec3_count(p, (3, 2, 1))
            if n >= 1:
                assert s["asc"] + s["des"] == n - 1


def test_stat_symmetries():
    # s(p) = STAT_IMAGE[t][s](t(p)) for all 18 (transform, statistic)
    # pairs, by the window definitions, on every permutation of length <= 7
    assert STAT_IMAGE.keys() == SYMMETRIES.keys()
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            for t, move in SYMMETRIES.items():
                image = move(p)
                for s in STATS:
                    assert naive_stat(s, p) == naive_stat(
                        STAT_IMAGE[t][s], image), (t, s, p)


def test_factors_are_the_window_definitions():
    # each statistic counts its factor of the up-down word, and STATS keeps
    # the order the rows and CLI choices have always had
    assert STATS == ("asc", "des", "dasc", "ddes", "pk", "vl")
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            bits = "".join(map(str, up_down(p)))
            for s, factor in FACTORS.items():
                count = sum(bits.startswith(factor, i)
                            for i in range(len(bits)))
                assert count == naive_stat(s, p), (s, p)


def test_step_gains_keep_the_hand_table():
    # what the gains read off FACTORS: des and asc at every step, ddes after
    # a descent, a peak after an ascent, vl or dasc for an ascent
    assert STEP_GAINS == {
        "asc": ((0, 1), (0, 1), (0, 1)), "des": ((1, 0), (1, 0), (1, 0)),
        "dasc": ((0, 0), (0, 1), (0, 0)), "ddes": ((1, 0), (0, 0), (0, 0)),
        "pk": ((0, 0), (1, 0), (0, 0)), "vl": ((0, 1), (0, 0), (0, 0))}


def test_word_key_matches_word_stats():
    # the step gains, folded over every up-down word of length <= 10 into
    # one key per statistic, give the byte-count statistics of the word
    for m in range(11):
        for w in itertools.product((0, 1), repeat=m):
            folded = {}
            for s, gains in STEP_GAINS.items():
                count, prev = 0, 2
                for up in w:
                    count += gains[prev][up]
                    prev = up
                folded[s] = count
            assert folded == word_stats(bytes(w)), w

