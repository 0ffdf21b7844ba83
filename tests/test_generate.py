import ast
import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternstats import bijections, distributions, formulas, generate, series
from patternstats.dyck import check_dyck, is_indecomposable
from patternstats.formulas import binom, catalan
from patternstats.generate import (
    CapExceededError,
    Caps,
    UnsupportedBasisError,
    gen_all,
    gen_bits,
    gen_class,
    gen_dyck,
    gen_indec,
)
from patternstats.perms import (
    avoids_all,
    contains,
    format_basis,
    format_perm,
    normalize_basis,
    parse_basis,
)
from patternstats.stats import STATS

from helpers import (
    interval_moves,
    naive_class,
    split_at_max_231,
    subsets_213_312,
)


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
    # a bit word encodes a class, so it takes the class cap by default
    assert sum(1 for _ in gen_bits(Caps().structured)) == 2 ** 14
    with pytest.raises(CapExceededError,
                       match="^binary word size 15 exceeds cap 14$"):
        next(gen_bits(15))


def test_gen_class_known_sizes():
    assert sum(1 for _ in gen_class(4, [(3, 2, 1)])) == 14
    assert sum(1 for _ in gen_class(5, [(2, 1, 3), (3, 1, 2)])) == 16
    assert sum(1 for _ in gen_class(5, [(1, 3, 2), (3, 2, 1)])) == 11
    assert binom(5, 2) + 1 == 11


def test_gen_class_123_321_dies_out():
    for n in (5, 6):
        assert sum(1 for _ in gen_class(n, [(1, 2, 3), (3, 2, 1)])) == 0


def test_structured_agrees_with_filter_and_naive():
    # the walk against a filter of S_n by avoids_all and against the naive
    # subsequence search, both in lex order
    for key in generate.STRUCTURED:
        for n in range(7):
            got = list(gen_class(n, key))
            assert got == _scan(n, key)
            assert got == naive_class(n, key)


def _decoded(decode):
    return lambda n: (decode(b) for b in gen_bits(n - 1))


# the four pair classes with an encoding or a subset description, each
# with a plain route that builds every member on its own, from its word or
# its subset
_REBUILT = {
    "132,213": _decoded(bijections.decode_132_213),
    "213,231": _decoded(bijections.decode_213_231),
    "123,132": _decoded(bijections.decode_123_132),
    "213,312": subsets_213_312,
}


def test_structured_sequences_match_plain_references():
    # the same members as a plain route, for n <= 11 for the Catalan
    # classes and up to the structured cap for the pairs
    for n in range(12):
        assert (sorted(gen_class(n, [(2, 3, 1)]))
                == sorted(split_at_max_231(n)))
        assert (sorted(gen_class(n, [(3, 2, 1)]))
                == sorted(bijections.from_dyck_321(d) for d in gen_dyck(n)))
    for n in range(Caps().structured + 1):
        for text, reference in _REBUILT.items():
            got = gen_class(n, parse_basis(text))
            assert sorted(got) == (sorted(reference(n)) if n else [()])


def test_binary_pair_walks_call_no_decoder(monkeypatch):
    # the walks and bijections.decode_* stay independent routes
    def refuse(bits):
        raise AssertionError("a walk called a decoder")

    for name in ("decode_132_213", "decode_213_231", "decode_123_132"):
        monkeypatch.setattr(bijections, name, refuse)
    for text in ("132,213", "213,231", "123,132"):
        key = parse_basis(text)
        for n in range(9):
            got = list(gen_class(n, key))
            assert len(got) == max(2 ** (n - 1), 1)
            assert got == _scan(n, key)


def test_structured_order_is_pinned():
    # every structured class comes out in lex order, each member once: in
    # the order of gen_all's filter to n = 8, and sorted beyond it
    for key in generate.STRUCTURED:
        for n in range(11):
            got = list(gen_class(n, key))
            assert got == sorted(set(got))
            if n <= 8:
                assert got == _scan(n, key)


def test_structured_bases_registered():
    # normalized keys, since class_cap looks a normalized basis up in them
    keys = generate.STRUCTURED
    assert normalize_basis([(2, 3, 1)]) in keys
    assert normalize_basis([(3, 2, 1)]) in keys
    assert len(set(keys)) == 7
    assert all(normalize_basis(key) == key for key in keys)


# -- the value-set walk ------------------------------------------------------

PATTERNS3 = tuple(itertools.permutations((1, 2, 3)))


def _scan(n, key):
    return [p for p in gen_all(n) if avoids_all(p, key)]


def test_filter_walk_matches_scan_for_every_length3_basis():
    # the walk against a contains scan of S_n, in the order of gen_all
    bases = [key for r in range(1, 7)
             for key in itertools.combinations(PATTERNS3, r)]
    assert len(bases) == 63
    # one size past the listed levels, so a streamed level is checked too
    for n in range(generate._LISTED + 2):
        held = [(p, {q for q in PATTERNS3 if contains(p, q)})
                for p in gen_all(n)]
        for key in bases:
            assert list(gen_class(n, key)) == [
                p for p, patterns in held if patterns.isdisjoint(key)]


def test_filter_fallback_for_other_pattern_lengths():
    for key in ([(2, 1)], [(1, 2), (3, 2, 1)], [(2, 1, 4, 3)],
                [(1, 3, 2), (4, 3, 2, 1)]):
        for n in range(7):
            got = list(gen_class(n, key))
            assert got == _scan(n, normalize_basis(key))
            assert got == naive_class(n, key)


def test_filter_walk_does_no_n_factorial_work(monkeypatch):
    # a basis of length-3 patterns never reaches gen_all; any other does
    def refuse(n, cap=None):
        raise AssertionError("gen_class scanned S_n")

    monkeypatch.setattr(generate, "gen_all", refuse)
    members = list(gen_class(10, [(3, 1, 2)]))
    assert len(members) == catalan(10)
    assert members == sorted(set(members))
    assert all(avoids_all(p, [(3, 1, 2)]) for p in members)
    with pytest.raises(AssertionError, match="scanned S_n"):
        gen_class(6, [(1, 3, 2), (4, 3, 2, 1)])


def test_walk_lists_no_value_set_above_the_listed_size(monkeypatch):
    # only value sets with at most _LISTED values left are listed; the
    # levels above them are streamed
    listed = []
    real = generate._completions

    def spy(used, left, rules, memo):
        listed.append(left.bit_count())
        return real(used, left, rules, memo)

    monkeypatch.setattr(generate, "_completions", spy)
    members = list(gen_class(12, [(3, 1, 2)]))
    assert listed and max(listed) <= generate._LISTED
    assert len(members) == catalan(12)
    assert members == sorted(set(members))


def test_walk_lists_no_empty_value_set_for_one_pattern(monkeypatch):
    # every value one pattern's rule allows leads to a completion; a basis
    # of several may allow one that leads to none, as after a first 1 in
    # Av(123,132)
    empty = []
    real = generate._completions

    def spy(used, left, rules, memo):
        got = real(used, left, rules, memo)
        if not got:
            empty.append(used)
        return got

    monkeypatch.setattr(generate, "_completions", spy)
    for p in PATTERNS3:
        for n in range(13):
            assert sum(1 for _ in gen_class(n, [p])) == catalan(n)
            assert not empty, (p, n)
    members = sum(1 for _ in gen_class(12, [(1, 2, 3), (1, 3, 2)]))
    assert members == 2 ** 11 and empty


def test_filter_cap_checked_after_a_walk():
    assert sum(1 for _ in gen_class(6, [(1, 2, 3)])) == 132
    with pytest.raises(CapExceededError, match="class size 6 exceeds cap 5"):
        distributions.class_size(6, [(1, 2, 3)], Caps(structured=5))
    assert sum(1 for _ in gen_class(6, [(2, 1, 4, 3)])) == 513
    with pytest.raises(CapExceededError, match="permutation size 6 exceeds cap 5"):
        distributions.class_size(6, [(2, 1, 4, 3)], Caps(perm=5))


def test_walks_read_in_turns_across_a_later_walk():
    # two walks at one n are read in turns, with a third basis walked
    # between them; each still gives its own class
    first = gen_class(7, [(1, 2, 3)])
    second = gen_class(7, [(1, 3, 2), (2, 3, 1)])
    got_first = [next(first) for _ in range(20)]
    got_second = [next(second) for _ in range(20)]
    assert list(gen_class(7, [(3, 2, 1)])) == _scan(
        7, ((3, 2, 1),))
    got_first += first
    got_second += second
    assert got_first == _scan(7, ((1, 2, 3),))
    assert got_second == _scan(7, ((1, 3, 2), (2, 3, 1)))


def test_filter_independent_of_request_order():
    a, b = ((1, 2, 3),), ((1, 3, 2),)

    def run(order):
        return {key: list(gen_class(6, key)) for key in order}

    assert run([a, b]) == run([b, a])


# -- counting over active sites ----------------------------------------------

def _counted_rows(max_n, key, caps=Caps()):
    # the six rows of every length to max_n, from one call
    counted = generate.count_lengths(max_n, key, STATS, caps)
    return [{s: rows[n] for s, rows in counted.items()}
            for n in range(max_n + 1)]


BASES3 = [key for r in range(1, 7)
          for key in itertools.combinations(PATTERNS3, r)]


def _listed_rows(max_n, key):
    return [distributions._tally(gen_class(n, key))
            for n in range(max_n + 1)]


def test_counted_rows_match_the_listing_for_every_length3_basis():
    # the count against the tally of the filter walk's listing
    assert len(BASES3) == 63
    for key in BASES3:
        assert _counted_rows(10, key) == _listed_rows(10, key), key


def test_counted_rows_match_a_contains_scan_for_every_length3_basis():
    # a reference that uses neither the walk's rules nor the slot rules
    held = {n: [(p, {q for q in PATTERNS3 if contains(p, q)})
                for p in gen_all(n)] for n in range(9)}
    for key in BASES3:
        assert _counted_rows(8, key) == [
            distributions._tally(p for p, patterns in held[n]
                                 if patterns.isdisjoint(key))
            for n in range(9)], key


@pytest.mark.parametrize("text, from_dyck", [
    ("231", bijections.from_dyck_231), ("321", bijections.from_dyck_321)])
def test_counted_catalan_rows_match_the_dyck_bijections(text, from_dyck):
    key = parse_basis(text)
    assert _counted_rows(12, key) == [
        distributions._tally(map(from_dyck, gen_dyck(n))) for n in range(13)]


@pytest.mark.parametrize("key", [
    key for key in generate.STRUCTURED if len(key) == 2], ids=format_basis)
def test_counted_pair_rows_match_the_structured_listing(key):
    assert _counted_rows(14, key) == [
        distributions._tally(gen_class(n, key))
        for n in range(15)]


def test_joint_fields_hold_every_value():
    # 2^69 members of Av(132,312) at n = 70: asc reaches 69, and each
    # packed field holds a count as large as C(69, 34), above 2^65
    key, caps = parse_basis("132,312"), Caps(structured=70)
    rows = {s: distributions.distribution(s, key, 70, caps=caps)
            for s in STATS}
    for s, row in rows.items():
        assert sum(row.values()) == 2 ** 69, s
    assert max(rows["asc"]) == max(rows["des"]) == 69
    assert rows["asc"][69] == rows["des"][69] == 1
    up, down = tuple(range(1, 101)), tuple(range(100, 0, -1))
    assert distributions._tally([up, down, up]) == {
        "asc": {99: 2, 0: 1}, "des": {0: 2, 99: 1},
        "dasc": {98: 2, 0: 1}, "ddes": {0: 2, 98: 1},
        "pk": {0: 3}, "vl": {0: 3}}


def test_count_lengths_checks_the_route_cap_and_the_pattern_lengths():
    assert generate.count_lengths(0, [(1, 2, 3)], ["pk"]) == {"pk": [{0: 1}]}
    assert generate.count_lengths(1, [(1, 2, 3)], STATS) == {
        s: [{0: 1}, {0: 1}] for s in STATS}
    with pytest.raises(CapExceededError, match="^class size 15 exceeds cap 14$"):
        generate.count_lengths(15, [(1, 2, 3)], ["pk"])
    with pytest.raises(CapExceededError, match="^class size 15 exceeds cap 14$"):
        generate.count_lengths(15, [(2, 3, 1)], ["pk"])
    with pytest.raises(CapExceededError, match="^class size 15 exceeds cap 14$"):
        generate.count_lengths(15, [(2, 1, 3), (3, 1, 2)], ["pk"])
    with pytest.raises(ValueError, match="^class size must be nonnegative: -1$"):
        generate.count_lengths(-1, [(3, 2, 1)], ["pk"])
    with pytest.raises(UnsupportedBasisError):
        generate.count_lengths(4, [(1, 2), (2, 3, 1)], ["pk"])


def test_count_moves_are_found_per_call_and_per_basis():
    # the moves of a flag string depend on the basis as well: counted one
    # after another in one process, each basis gives the tallies it gives
    # counted alone in a fresh interpreter
    texts = ["312", "213", "123,132"]
    in_turn = [generate.count_lengths(10, parse_basis(text), STATS)
               for text in texts]
    code = ("import sys\n"
            "from patternstats.generate import count_lengths\n"
            "from patternstats.perms import parse_basis\n"
            "from patternstats.stats import STATS\n"
            "print(count_lengths(10, parse_basis(sys.argv[1]), STATS))\n")
    for text, got in zip(texts, in_turn):
        alone = subprocess.run([sys.executable, "-c", code, text],
                               capture_output=True, text=True,
                               check=True).stdout
        assert got == ast.literal_eval(alone), text


def _states_reached(key, max_n):
    # [the distinct states of the slot automaton over lengths 1..n, for
    # each n <= max_n], walked over the transfer maps of _moves
    sides = generate._sides(key)
    level = {(b"\1\1", 1, 2)}
    seen, counts = set(level), [0, 1]
    for _ in range(max_n - 1):
        level = {state for flags, mark, _ in level
                 for state in generate._moves(flags, mark, sides)}
        seen |= level
        counts.append(len(seen))
    return counts


# the distinct (flags, mark, last step) states each basis of two patterns
# reaches by length 30, in combinations order
_STATES_BY_30 = (59, 4, 32, 7, 7, 4, 59, 3, 7, 5, 59, 32, 4, 4, 59)

# the bases with finitely many slot states: each reaches its count at
# length 30 by length 20 already
_FINITE_STATE = ("123,213", "123,312", "123,321", "132,213", "132,312",
                 "132,321", "213,231", "231,312", "231,321")


def test_slot_automaton_reaches_the_pinned_states():
    # the states pin the collapse of forbidden runs: uncollapsed flags grow
    # with every forbidden slot, so no count would stay put.  123,231 and
    # 213,321 have 3 states at every length but 22 distinct ones by length
    # 20 and 32 by length 30
    pairs = list(itertools.combinations(PATTERNS3, 2))
    assert len(pairs) == len(_STATES_BY_30) == 15
    for key, want in zip(pairs, _STATES_BY_30):
        counts = _states_reached(key, 30)
        assert counts[30] == want, format_basis(key)
        finite = format_basis(key) in _FINITE_STATE
        assert (counts[20] == want) == finite, format_basis(key)


def test_side_moves_match_the_interval_model_on_every_state_reached():
    # the side table against a model in which each pattern forbids an
    # interval of slots and each side's forbidden runs are collapsed by a
    # regex: the same transfer map out of every (flags, mark) reached by
    # length 12.  Where two forbidden slots meet at the mark, a side taken
    # from the flags must drop one of them; 32 bases reach such a state
    met = 0
    for key in BASES3:
        sides = generate._sides(key)
        level = {(b"\1\1", 1)}
        seen = set(level)
        for _ in range(12):
            after = set()
            for flags, mark in level:
                moves = generate._moves(flags, mark, sides)
                assert moves == interval_moves(flags, mark, key), (
                    format_basis(key), flags, mark)
                after |= {state[:2] for state in moves}
            level = after - seen
            seen |= level
        met += any(b"\0\0" in flags for flags, _ in seen)
    assert met == 32


_FLIPPED = {"below": "above", "above": "below", "first": "last",
            "last": "first"}


@pytest.mark.parametrize("pattern", PATTERNS3, ids=format_perm)
def test_a_one_field_error_in_any_side_rule_fails(pattern, monkeypatch):
    # each single change to a pattern's entry of the side table: its side
    # flipped, the slot it keeps changed to either other one, or the end
    # that spares it flipped, gives rows that differ from the listing for
    # some basis holding the pattern, n <= 7
    holding = [key for key in BASES3 if pattern in key]
    listed = {key: _listed_rows(7, key) for key in holding}
    side, keep, spared = generate._SIDES[pattern]
    faults = [(_FLIPPED[side], keep, spared), (side, keep, _FLIPPED[spared])]
    faults += [(side, other, spared) for other in (None, "outer", "inner")
               if other != keep]
    for fault in faults:
        monkeypatch.setitem(generate._SIDES, pattern, fault)
        assert any(_counted_rows(7, key) != listed[key]
                   for key in holding), fault


@settings(max_examples=60, deadline=None)
@given(key=st.sets(st.sampled_from(PATTERNS3), min_size=1).map(
           normalize_basis),
       stat=st.sampled_from(STATS), n=st.integers(0, 8))
def test_counted_rows_match_the_filter_listing(key, stat, n):
    row = generate.count_lengths(8, key, [stat])[stat][n]
    assert row == distributions._tally(gen_class(n, key))[stat]


# (basis text, largest n) of the cross-checks of closed forms and series:
# Av(132) and Av(312) have the most states
_CROSS_N = {**{text: 100 for text in distributions._PAIR_BASES},
            **{text: 60 for text in ("123", "213", "231", "321")},
            "132": 16, "312": 16}


def test_counted_rows_match_every_closed_form_and_series_to_large_n():
    # only the (statistic, basis) cells a closed form or a series states
    # are counted.  A single class has C_n members, about 2^113 at n = 60,
    # so its counts overflow a packed field of max_n + 1 bits well before
    caps = Caps(structured=100)
    cells = [(spec.stat, spec.basis, lambda n, fid=fid:
              formulas.closed_form_row(fid, n), spec.min_n)
             for fid in formulas.formula_ids()
             for spec in [formulas.formula(fid)]]
    for name, (_, stated) in series.SERIES.items():
        for stat, text in stated:
            top = _CROSS_N[text]
            cells.append((stat, parse_basis(text),
                          series.expand(name, top).row_counts, 0))
    asked = {}
    for stat, key, _, _ in cells:
        asked.setdefault(key, set()).add(stat)
    counted = {key: generate.count_lengths(_CROSS_N[format_basis(key)], key,
                                           sorted(stats), caps)
               for key, stats in asked.items()}
    checked = 0
    for stat, key, want, first in cells:
        rows = counted[key][stat]
        for n in range(first, len(rows)):
            assert rows[n] == want(n), (stat, format_basis(key), n)
            checked += 1
    assert checked > 1000
