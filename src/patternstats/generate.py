"""Exhaustive generation of permutations, pattern classes, Dyck words, and bits.

Everything is a generator with a fixed, documented order so that results
are reproducible: full symmetric groups and binary words come out in
lexicographic order, Dyck words in lexicographic order with D < U, and
every class in lexicographic order.

:func:`gen_class` walks a basis of length-3 patterns over value sets.
Whether a value may come next in an avoider depends only on the set of
values already used (West, "Generating trees and forbidden subsequences",
1996; Vatter, "Finitely labeled generating trees and restricted
permutations", 2006): for each pattern, the next value must end no
occurrence and forbid no other unused value, and :data:`_NEXT` gives
those values from the used and unused sets as bitmasks.  A basis allows
what all its patterns allow.  For one pattern every allowed value leads
to a completion; for a basis of several it need not, since each pattern
may leave a different way out (after a first 1, no value may follow in
Av(123,132)), so the walk can list value sets with no completion.  Next
values are taken in increasing order, so the class comes out in the
lexicographic order of :func:`gen_all`.  A value set with at most
:data:`_LISTED` values left has its completions listed once per call;
the levels above are walked depth-first with the prefix carried down, so
memory stays bounded by the lower levels, work is in proportion to the
class, and no cache is kept between calls.  A basis with a pattern of any
other length is scanned with ``avoids_all`` over :func:`gen_all`.

The oracle does not list a basis of length-3 patterns: it counts it with
:func:`count_lengths`, one level walk per statistic asked, each giving
the row of that statistic for every length up to the largest asked.  A
member is built left to right, each new value placed in one of the slots
around the values before it.  The value splits its slot in two, and each
pattern forbids slots on one side of it only, the whole side or all of it
but one slot, unless the slot is at the end that spares the pattern
(:data:`_SIDES`).  So each side of a next state is a slice of the flags,
one forbidden slot, or a kept slot beside one, and a state is the slot
flags, runs of forbidden slots collapsed, with the slot just above the
last value and the last step.  The moves out of a state depend on its
flags, that mark and the basis alone, so a call finds them once for each
distinct pair as its transfer map {next state: slots}, the number of
allowed slots that lead to each next state, in a memo local to the call
and shared by all its levels and statistics; the last step only says
which moves end the statistic's factor
(:data:`~patternstats.stats.STEP_GAINS`).  A state's tally is one
int that packs its count of each value of the statistic, so a step is a
shift and a merge an add.  Only a basis with a pattern of another length
is listed for its rows.

Every class the paper studies is a class of length-3 patterns, and its
Dyck and binary words only encode such classes: Dyck words of semilength
n encode Av_n(231) and Av_n(321), and binary words of length n - 1 the
encoded pairs at n.  So caps go by the kind of work, not by the basis: a
basis of length-3 patterns, walked or counted, takes ``structured``, and
so does a Dyck word of semilength n; any other basis takes ``perm``,
the cap of the n! scan over :func:`gen_all`.  :data:`STRUCTURED` (the
two Catalan classes Av(231) and Av(321) and the five pair classes of the
paper) picks no cap; it is the reference list that verify's
``STRUCTURED_MATCHES_FILTER`` checks against independent listings.

Generation caps are configuration, not hard constants.  A run's caps
arrive as one :class:`Caps` value: :func:`gen_class` takes it whole, and
each word generator (:func:`gen_all`, :func:`gen_bits`, :func:`gen_dyck`,
:func:`gen_indec`) takes an optional ``cap`` that defaults to its kind's
field of ``Caps()``: ``perm`` for :func:`gen_all`, ``structured`` for the
others.  This module alone decides which cap applies to a basis:
:func:`class_cap` checks a size against it, for :func:`gen_class` and
for callers that must refuse a size before reading a cache or listing a
word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .perms import Perm, avoids_all, normalize_basis, parse_basis
from .stats import STEP_GAINS


@dataclass(frozen=True)
class Caps:
    """Size caps for one run: generation by kind, and the series degree."""

    perm: int = 10        # gen_all: every basis with a pattern of length != 3
    structured: int = 14  # every basis of length-3 patterns, Dyck and bit words
    series: int = 24      # the degree of a series, or n of a closed form

    def check_series(self, degree: int) -> None:
        """Refuse a series degree above ``series``: the one check for the
        ``series`` command, the series and closed-form routes of
        ``distribution`` (a closed form's n is its row's degree), every
        verify check, each of which reads its series and closed-form rows
        through those routes, and the local terms of ``oeis``."""
        if degree > self.series:
            raise CapExceededError(
                f"series degree {degree} exceeds series cap {self.series}")


class CapExceededError(ValueError):
    """Requested size is beyond the configured generation cap."""


class UnsupportedBasisError(ValueError):
    """:func:`count_lengths` was given a basis with a pattern of a length
    other than 3."""


def _check_cap(n: int, cap: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"{what} size must be nonnegative: {n}")
    if n > cap:
        raise CapExceededError(f"{what} size {n} exceeds cap {cap}")


def gen_all(n: int, cap: int = Caps.perm) -> Iterator[Perm]:
    """All n! permutations of 1..n in lexicographic order."""
    _check_cap(n, cap, "permutation")
    return iter(itertools.permutations(range(1, n + 1)))


# -- the value-set walk -------------------------------------------------------

def _low(x: int) -> int:
    return x & -x


def _high(x: int) -> int:
    return 1 << x.bit_length() >> 1


def _below(left: int, x: int) -> int:
    # the values of left below every value of x; all of left if x is empty
    return left & (_low(x) - 1)


def _above(left: int, x: int) -> int:
    # the values of left above every value of x; all of left if x is empty
    return left >> x.bit_length() << x.bit_length()


# pattern -> the unused values that may follow a prefix on the values of
# u, with l the unused ones (bit v <-> value v): those that end no
# occurrence and forbid no other unused value.  A forbidden value stays
# forbidden, so no value left out has a completion; an empty prefix allows
# every value.  For one pattern each value allowed has a completion too; for
# a basis of several, a value all its rules allow may have none
_NEXT = {
    (1, 2, 3): lambda u, l: _below(l, u) | _high(l),
    (3, 2, 1): lambda u, l: _above(l, u) | _low(l),
    (1, 3, 2): lambda u, l: _below(l, u) | _low(l - _below(l, u)),
    (3, 1, 2): lambda u, l: _above(l, u) | _high(l - _above(l, u)),
    (2, 1, 3): lambda u, l: _above(l, u - _above(u, l)),
    (2, 3, 1): lambda u, l: _below(l, u - _below(u, l)),
}


# value sets with at most this many values left have their completions
# listed once per call; larger ones are walked depth-first, so the memo
# holds no list longer than the completions of _LISTED values
_LISTED = 7


def _walk(n: int, key: tuple[Perm, ...]) -> Iterator[Perm]:
    # every member of S_n avoiding the length-3 patterns of key, in lex order
    rules = [_NEXT[p] for p in key]
    return _stream((), 0, (1 << n + 1) - 2, rules, {})


def _allowed(used: int, left: int, rules) -> int:
    allowed = left
    for rule in rules:
        allowed &= rule(used, left)
    return allowed


def _stream(prefix: Perm, used: int, left: int, rules,
            memo: dict) -> Iterator[Perm]:
    # prefix, on the values of used, followed by each of its completions
    if left.bit_count() <= _LISTED:
        for rest in _completions(used, left, rules, memo):
            yield prefix + rest
        return
    allowed = _allowed(used, left, rules)
    while allowed:
        bit = _low(allowed)
        allowed -= bit
        yield from _stream(prefix + (bit.bit_length() - 1,), used | bit,
                           left - bit, rules, memo)


def _completions(used: int, left: int, rules, memo: dict) -> list[Perm]:
    # the ways to finish a prefix on the values of used, next values in
    # increasing order; they depend on the set alone, so each set's are
    # listed once.  A module-level function, so that no closure cycle keeps
    # the memo alive after the walk
    if not left:
        return [()]
    got = memo.get(used)
    if got is None:
        allowed = _allowed(used, left, rules)
        got = memo[used] = []
        while allowed:
            bit = _low(allowed)
            allowed -= bit
            head = (bit.bit_length() - 1,)
            got += [head + rest for rest in
                    _completions(used | bit, left - bit, rules, memo)]
    return got


def gen_bits(length: int, cap: int = Caps.structured) -> Iterator[str]:
    """All binary words of the given length in lexicographic order."""
    _check_cap(length, cap, "binary word")
    return ("".join(bits) for bits in itertools.product("01", repeat=length))


def gen_dyck(n: int, cap: int = Caps.structured) -> Iterator[str]:
    """All Dyck words of semilength n, lexicographically with D < U."""
    _check_cap(n, cap, "Dyck word")
    steps: list[str] = []

    def rec(ups: int, downs: int) -> Iterator[str]:
        if downs == 0:
            yield "".join(steps)
            return
        if downs > ups:
            steps.append("D")
            yield from rec(ups, downs - 1)
            steps.pop()
        if ups > 0:
            steps.append("U")
            yield from rec(ups - 1, downs)
            steps.pop()

    return rec(n, n)


def gen_indec(n: int, cap: int = Caps.structured) -> Iterator[str]:
    """All indecomposable Dyck words of semilength n (none for n = 0)."""
    _check_cap(n, cap, "Dyck word")
    if n == 0:
        return iter(())
    return ("U" + d + "D" for d in gen_dyck(n - 1, cap=cap))


# -- the structured classes --------------------------------------------------

# the classes verify's STRUCTURED_MATCHES_FILTER lists against a reference
# route; their cap is that of every other basis of length-3 patterns
STRUCTURED = tuple(map(parse_basis, (
    "231", "321", "213,312", "132,213", "213,231", "123,132", "132,321")))


def class_cap(n: int, key: tuple[Perm, ...], caps: Caps) -> int:
    """The cap of the class of ``key``, with n checked against it.

    ``key`` is a normalized basis.  A basis of length-3 patterns, walked
    or counted, is capped by ``caps.structured`` and names the size a
    "class" size in its error; any other basis is scanned over the n!
    permutations, capped by ``caps.perm``, and says "permutation".
    """
    cap, what = ((caps.structured, "class") if all(len(p) == 3 for p in key)
                 else (caps.perm, "permutation"))
    _check_cap(n, cap, what)
    return cap


def gen_class(n: int, basis, caps: Caps = Caps()) -> Iterator[Perm]:
    """All permutations of length n avoiding every pattern in ``basis``,
    in lexicographic order.

    ``caps`` is the run's :class:`Caps`; the size is checked first against
    the cap :func:`class_cap` gives the basis.  A basis of length-3
    patterns is then walked over value sets, the completions of each set
    with at most :data:`_LISTED` values left listed once; any other basis
    is scanned over :func:`gen_all` with ``avoids_all``.
    """
    key = normalize_basis(basis)
    cap = class_cap(n, key, caps)
    if all(len(p) == 3 for p in key):
        return _walk(n, key)
    return (p for p in gen_all(n, cap=cap) if avoids_all(p, key))


# -- counting over active sites -----------------------------------------------

# pattern -> (the side of the new value whose slots it forbids, the one
# slot of that side it keeps, the end where it forbids none).  A value placed
# in slot j splits it in two around it, and among the slots 0..top once it
# is placed, slots 0..j are below it and j + 1..top above; a side's outer
# slot is 0 or top, its inner one j or j + 1, and the first and last ends are
# j = 0 and j = top - 1
_SIDES = {
    # above it, unless it is the minimum
    (1, 2, 3): ("above", None, "first"),
    # below it, unless it is the maximum
    (3, 2, 1): ("below", None, "last"),
    # between the minimum and it
    (1, 3, 2): ("below", "outer", "first"),
    # between it and the maximum
    (3, 1, 2): ("above", "outer", "last"),
    # above its upper neighbour
    (2, 1, 3): ("above", "inner", "last"),
    # below its lower neighbour
    (2, 3, 1): ("below", "inner", "first"),
}


def _sides(key: tuple[Perm, ...]) -> dict[tuple[int, int], list]:
    # {(flag of slot 0, flag of the last slot): [(below, above) for j at the
    # first end, the last and neither]}: each side's new flags, forbidden
    # runs collapsed, or None where no pattern forbids a slot of it
    sides = {}
    for low, high in itertools.product((0, 1), repeat=2):
        # a kept slot's flag and one forbidden slot, in the side's order
        kept = {("below", "outer"): b"\1\0" if low else b"\0",
                ("below", "inner"): b"\0\1", ("above", "inner"): b"\1\0",
                ("above", "outer"): b"\0\1" if high else b"\0"}
        sides[low, high] = ends = []
        for end in ("first", "last", None):
            made = {}
            for side, keep, spared in (_SIDES[p] for p in key):
                if spared != end:
                    # two patterns on one side leave none of it allowed
                    made[side] = (b"\0" if side in made
                                  else kept.get((side, keep), b"\0"))
            ends.append((made.get("below"), made.get("above")))
    return sides


def _moves(flags: bytes, mark: int, sides: dict) -> dict[tuple, int]:
    # the transfer map of a state of these flags and mark: {next state:
    # the number of allowed slots that lead to it}
    first, last, other = sides[flags[0], flags[-1]]
    # two forbidden slots side by side, where the sides of the last move
    # met: cut drops one, and slot j of the flags is slot i of cut
    pair = flags.find(b"\0\0")
    cut = flags[:pair] + flags[pair + 1:] if pair >= 0 else flags
    slots: dict[tuple[bytes, int, bool], int] = {}
    end = len(flags) - 1
    j = flags.find(1)
    while j >= 0:
        below, above = first if j == 0 else last if j == end else other
        i = j - (0 <= pair < j)
        below = below or cut[:i + 1]
        state = (below + (above or cut[i:]), len(below), j >= mark)
        slots[state] = slots.get(state, 0) + 1
        j = flags.find(1, j + 1)
    return slots


def count_lengths(max_n: int, basis, stats,
                  caps: Caps = Caps()) -> dict[str, list[dict[int, int]]]:
    """{statistic: its rows {k: members} of lengths 0..max_n} for each of
    ``stats`` over a basis of length-3 patterns, keys in increasing order.

    The cap :func:`class_cap` gives the basis is checked for max_n first.
    Each new value goes in an allowed slot around the prefix's values
    (West 1996; Albert, Linton & Ruškuc, "The insertion encoding of
    permutations", 2005).  Slot j splits in two around it, slots 0..j
    below the new value and j + 1..top above it.  Each pattern forbids
    slots on one side only, all of them or all but the outer or inner one,
    unless j is the end that spares it (:data:`_SIDES`); two patterns on
    one side forbid all of it, and a forbidden slot stays forbidden, since
    a value there would end an occurrence.  The basis is turned once per
    call into each side's new flags at j = 0, at j = top - 1 and at any
    other j: a slice of the flags where no pattern forbids a slot of the
    side, else one forbidden slot with the kept slot's flag beside it, if
    a slot is kept.  A state is (slot flags, the slot just above the last
    value, the last step), each side's runs of forbidden slots collapsed
    into one.  Where the two sides met, two forbidden slots may stand side
    by side at the mark, and a side sliced from those flags keeps one of
    them, so each run stays collapsed.  The next states depend on the
    flags, the slot mark (a move to slot j is an ascent when j is at or
    above it) and the basis alone, so each (flags, mark) has its transfer
    map {next state: slots}, the number of allowed slots that lead to each
    next state, found once per call and shared by every level and every
    statistic.  A next state's last step
    says whether the move there is an ascent; with the state's own last
    step, it chooses only whether the move ends the statistic's factor.

    Each statistic has a level walk of its own, in which a state carries
    one int: its count of members with statistic k in bits [k*w, (k+1)*w).
    A count at length n is at most the Catalan number C_n < 4^n, the size
    of a class with one length-3 pattern, so it fits in 2n bits and
    w = 2 max_n + 2 leaves every field room.  A step that ends the factor
    shifts the tally one field up, a next state reached by several slots
    takes the tally times their number, states that meet add their
    tallies, and each length's total is unpacked once.
    """
    key = normalize_basis(basis)
    if not all(len(p) == 3 for p in key):
        raise UnsupportedBasisError(
            f"basis {key!r} has a pattern of length other than 3")
    class_cap(max_n, key, caps)
    sides = _sides(key)
    moves: dict[tuple[bytes, int], dict[tuple, int]] = {}
    width = 2 * max_n + 2
    return {stat: [_unpack(total, width) for total in _walk_levels(
                max_n, sides, moves, STEP_GAINS[stat], width)]
            for stat in stats}


def _walk_levels(max_n: int, sides: dict, moves: dict, gains,
                 width: int) -> list[int]:
    # the packed total of every length 0..max_n for one statistic
    shifts = [[gain * width for gain in row] for row in gains]
    # the first value forbids nothing and is no step
    level = {(b"\1\1", 1, 2): 1}
    totals = [1, 1][:max_n + 1]
    for _ in range(max_n - 1):
        after: dict[tuple[bytes, int, bool], int] = {}
        for (flags, mark, prev), tally in level.items():
            found = moves.get((flags, mark))
            if found is None:
                found = moves[flags, mark] = _moves(flags, mark, sides)
            down, up = shifts[prev]
            # a shift by 0 or a product by 1 would copy the int
            fall = tally << down if down else tally
            rise = tally << up if up else tally
            for state, times in found.items():
                moved = rise if state[2] else fall
                if times > 1:
                    moved *= times
                # a state's first tally is kept as it is, not added to 0
                got = after.get(state)
                after[state] = moved if got is None else got + moved
        level = after
        totals.append(sum(level.values()))
    return totals


def _unpack(total: int, width: int) -> dict[int, int]:
    # {k: the count in field k} of a packed total, k increasing
    row, mask, k = {}, (1 << width) - 1, 0
    while total:
        if total & mask:
            row[k] = total & mask
        total >>= width
        k += 1
    return row
