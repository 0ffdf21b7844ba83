"""The six consecutive statistics on permutations.

Each statistic counts windows of adjacent positions: ascents and descents
use windows of length 2; double ascents, double descents, peaks, and
valleys use windows of length 3.  Every statistic of the empty and the
singleton permutation is 0.

All six depend only on the up-down word of a permutation, the bytes
``w[i] = [p[i] < p[i+1]]``: asc counts the 1s and des the 0s, pk counts
the factors 10 and vl the factors 01, and dasc = asc - vl - [w starts
with 1], ddes = des - pk - [w starts with 0].  :func:`all_stats` reads
them off that word with byte counts, and a tally over a class evaluates
:func:`word_stats` once per distinct word; the one-statistic functions
:func:`asc` ... :func:`vl` keep the window definitions.
"""

from __future__ import annotations

from operator import lt

from .perms import Perm, reduce_word

STATS = ("asc", "des", "dasc", "ddes", "pk", "vl")


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
