"""The six consecutive statistics on permutations.

Each statistic counts windows of adjacent positions: ascents and descents
use windows of length 2; double ascents, double descents, peaks, and
valleys use windows of length 3.  Every statistic of the empty and the
singleton permutation is 0.

All six depend only on the up-down word of a permutation, the bytes
``w[i] = [p[i] < p[i+1]]``: each counts the occurrences of one factor of
that word, and :data:`FACTORS` is the one table of those factors (asc
counts 1, des 0, dasc 11, ddes 00, pk 10 and vl 01).  Three things are
derived from it:

- :data:`STAT_IMAGE`, what r, c and rc do to each statistic.  Reversing a
  permutation reverses and complements its word, complementing it
  complements the word, and rc reverses the word, so s(p) is the
  statistic of t(p) that counts the image of s's factor;
- :data:`STEP_GAINS`, what each step of a word adds to each statistic:
  one when the step ends the statistic's factor, else nothing.  The
  counting pass of :mod:`~patternstats.generate` adds these as it builds
  a member;
- the word statistics of the encoding checks in
  :mod:`~patternstats.distributions`.

:func:`all_stats` reads all six off the word with byte counts
(:func:`word_stats`), and the one-statistic functions :func:`asc` ...
:func:`vl` keep the window definitions; both stay independent of the
table, as references for it.  A listed class is tallied one distinct
word at a time with :func:`word_stats`: at most 2^(n-1) words, however
many members share them.
"""

from __future__ import annotations

from operator import lt

from .perms import Perm, reduce_word

# statistic -> the factor of the up-down word it counts, 1 for an ascent
FACTORS = {"asc": "1", "des": "0", "dasc": "11", "ddes": "00",
           "pk": "10", "vl": "01"}
STATS = tuple(FACTORS)

_FLIP = str.maketrans("01", "10")
# transform -> what it does to a factor, as r, c and rc of perms.SYMMETRIES
# act on the up-down word
_WORD_MAPS = {"r": lambda f: f[::-1].translate(_FLIP),
              "c": lambda f: f.translate(_FLIP),
              "rc": lambda f: f[::-1]}
_COUNTING = {factor: stat for stat, factor in FACTORS.items()}
# transform -> {s: the statistic of t(p) that equals s(p)}
STAT_IMAGE = {t: {stat: _COUNTING[move(factor)]
                  for stat, factor in FACTORS.items()}
              for t, move in _WORD_MAPS.items()}
# statistic -> gains[prev][up]: 1 when an ascent (``up`` 1) or a descent
# (0) after a descent (``prev`` 0), after an ascent (1) or as the first
# step (2) ends the statistic's factor, else 0
STEP_GAINS = {stat: tuple(tuple(int((before + up).endswith(factor))
                                for up in "01")
                          for before in ("0", "1", ""))
              for stat, factor in FACTORS.items()}


def asc(p: Perm) -> int:
    """Number of positions i with p[i] < p[i+1]."""
    return sum(1 for i in range(len(p) - 1) if p[i] < p[i + 1])


def des(p: Perm) -> int:
    """Number of positions i with p[i] > p[i+1]."""
    return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def dasc(p: Perm) -> int:
    """Number of positions i with p[i] < p[i+1] < p[i+2]."""
    return sum(1 for i in range(len(p) - 2) if p[i] < p[i + 1] < p[i + 2])


def ddes(p: Perm) -> int:
    """Number of positions i with p[i] > p[i+1] > p[i+2]."""
    return sum(1 for i in range(len(p) - 2) if p[i] > p[i + 1] > p[i + 2])


def pk(p: Perm) -> int:
    """Number of positions i with p[i] < p[i+1] > p[i+2]."""
    return sum(1 for i in range(len(p) - 2) if p[i] < p[i + 1] > p[i + 2])


def vl(p: Perm) -> int:
    """Number of positions i with p[i] > p[i+1] < p[i+2]."""
    return sum(1 for i in range(len(p) - 2) if p[i] > p[i + 1] < p[i + 2])


_FUNCS = {"asc": asc, "des": des, "dasc": dasc, "ddes": ddes, "pk": pk, "vl": vl}


def stat(kind: str, p: Perm) -> int:
    """Evaluate one of the six statistics by name."""
    try:
        return _FUNCS[kind](p)
    except KeyError:
        raise ValueError(f"unknown statistic {kind!r}; expected one of {STATS}") from None


def up_down(p: Perm) -> bytes:
    """The up-down word of ``p``: byte i is 1 when p[i] < p[i+1], else 0."""
    return bytes(map(lt, p, p[1:]))


def word_stats(w: bytes) -> dict[str, int]:
    """All six statistics of any permutation whose up-down word is ``w``.

    Each run of ascents adds one ascent less than its length to dasc, and
    a run starts at the front or after a valley; descents likewise.
    """
    a = w.count(1)
    d = len(w) - a
    peaks = w.count(b"\x01\x00")
    valleys = w.count(b"\x00\x01")
    return {"asc": a, "des": d,
            "dasc": a - valleys - w.startswith(b"\x01"),
            "ddes": d - peaks - w.startswith(b"\x00"),
            "pk": peaks, "vl": valleys}


def all_stats(p: Perm) -> dict[str, int]:
    """All six statistics of ``p``, read off its up-down word."""
    return word_stats(up_down(p))


def consec3_count(p: Perm, pattern: Perm) -> int:
    """Number of windows p[i] p[i+1] p[i+2] reducing to ``pattern``.

    >>> consec3_count((1, 2, 3, 4, 5, 6), (1, 2, 3))
    4
    """
    if len(pattern) != 3:
        raise ValueError(f"pattern must have length 3: {pattern!r}")
    return sum(1 for i in range(len(p) - 2)
               if reduce_word(p[i:i + 3]) == pattern)
