"""Permutations in one-line notation.

A permutation of length n is a tuple containing each of 1..n exactly once;
the empty tuple is the unique permutation of length 0.  Positions and
values are 1-based throughout: position ``i`` holds ``p[i - 1]``.

Pattern containment uses the usual order-isomorphism convention: ``host``
contains ``pattern`` when some subsequence of ``host`` reduces to
``pattern``.  For patterns of length 3 (the common case here) containment
is decided by linear scans for 123 and 132; the other four patterns are
their images under the symmetries of :data:`SYMMETRIES`, and ``host``
contains an image exactly when the image of ``host`` contains the scanned
pattern.  Any other pattern falls back to a pruned backtracking search.

This module alone reads basis text (:func:`parse_basis`) and holds the
reverse/complement symmetries (:data:`SYMMETRIES`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

Perm = tuple  # permutation of 1..n in one-line notation


class InvalidPermError(ValueError):
    """Input is not a permutation of 1..n (or has repeated entries)."""


class BasisError(ValueError):
    """A pattern set is empty, contains the empty pattern, or repeats."""


def check_perm(values: Iterable[int]) -> Perm:
    """Validate and return ``values`` as a permutation tuple.

    >>> check_perm([2, 3, 1])
    (2, 3, 1)
    """
    p = tuple(values)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise InvalidPermError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def parse_perm(text: str) -> Perm:
    """Parse a one-line permutation, e.g. "231" or "2,3,1".

    The digit-string form only reaches length 9; the comma-separated form
    takes any length.

    >>> parse_perm("1,2,3,4,5,6,7,8,10,9")
    (1, 2, 3, 4, 5, 6, 7, 8, 10, 9)
    """
    if not text:
        return ()
    parts = text.split(",") if "," in text else list(text)
    if not all(part.isdigit() for part in parts):
        raise InvalidPermError(
            f"permutation must be a digit string or comma-separated: {text!r}")
    return check_perm(int(part) for part in parts)


def format_perm(p: Perm) -> str:
    """The digit string of ``p``, or its comma-separated form from length 10.

    >>> format_perm((2, 3, 1))
    '231'
    """
    if len(p) > 9:
        return ",".join(str(x) for x in p)
    return "".join(str(x) for x in p)


def reduce_word(word: Sequence[int]) -> Perm:
    """Order-isomorphic permutation of a sequence of distinct integers.

    >>> reduce_word((8, 7, 4, 5))
    (4, 3, 1, 2)
    >>> reduce_word(())
    ()
    """
    seen = set(word)
    if len(seen) != len(word):
        raise InvalidPermError(f"entries must be pairwise distinct: {word!r}")
    rank = {v: i for i, v in enumerate(sorted(word), start=1)}
    return tuple(rank[v] for v in word)


def reverse(p: Perm) -> Perm:
    return p[::-1]


def complement(p: Perm) -> Perm:
    n = len(p)
    return tuple(n + 1 - x for x in p)


# name -> the map on permutations; each is its own inverse
SYMMETRIES = {
    "r": reverse,
    "c": complement,
    "rc": lambda p: complement(p[::-1]),
}


def direct_sum(a: Perm, b: Perm) -> Perm:
    """Stack ``b`` above and to the right of ``a``."""
    return a + tuple(x + len(a) for x in b)


def skew_sum(a: Perm, b: Perm) -> Perm:
    """Stack ``b`` below and to the right of ``a``."""
    return tuple(x + len(b) for x in a) + b


def ltr_maxima(p: Perm) -> list[tuple[int, int]]:
    """Left-to-right maxima as (position, value) pairs, 1-based.

    >>> ltr_maxima((3, 2, 6, 5, 8, 7, 4, 1))
    [(1, 3), (3, 6), (5, 8)]
    """
    out = []
    best = 0
    for i, v in enumerate(p, start=1):
        if v > best:
            out.append((i, v))
            best = v
    return out


# -- containment ------------------------------------------------------------

def _has_123(p: Perm) -> bool:
    lo = None   # smallest value so far
    mid = None  # smallest value having a smaller value before it
    for x in p:
        if mid is not None and x > mid:
            return True
        if lo is None or x < lo:
            lo = x
        elif mid is None or x < mid:
            mid = x
    return False


def _has_132(p: Perm) -> bool:
    # Scan right to left keeping a decreasing stack; ``third`` is the largest
    # value known to sit right of a larger one.
    third = None
    stack: list[int] = []
    for x in reversed(p):
        if third is not None and x < third:
            return True
        while stack and stack[-1] < x:
            third = stack.pop()
        stack.append(x)
    return False


# length-3 pattern -> (scan, symmetry to apply to the host first, or None).
# A host contains the image s(q) exactly when s(host) contains q, as each
# symmetry is its own inverse, so two scans serve all six patterns
_SCANS3: dict[Perm, tuple] = {}
for _q, _scan in (((1, 2, 3), _has_123), ((1, 3, 2), _has_132)):
    _SCANS3[_q] = _scan, None
    for _symmetry in SYMMETRIES.values():
        _SCANS3.setdefault(_symmetry(_q), (_scan, _symmetry))


def _search(host: Perm, pattern: Perm, chosen: tuple, start: int) -> bool:
    a = len(chosen)
    if a == len(pattern):
        return True
    # prune: enough host entries must remain for the unplaced pattern slots
    for i in range(start, len(host) - (len(pattern) - a) + 1):
        v = host[i]
        if all((v > w) == (pattern[a] > pattern[b]) for b, w in enumerate(chosen)):
            if _search(host, pattern, chosen + (v,), i + 1):
                return True
    return False


def contains(host: Perm, pattern: Perm) -> bool:
    """True iff some subsequence of ``host`` is order-isomorphic to ``pattern``.

    >>> contains((1, 8, 2, 7, 4, 6, 3, 5), (4, 3, 1, 2))
    True
    >>> contains((1, 2, 3), (2, 1))
    False

    A pattern that is not a permutation raises :class:`InvalidPermError`.
    """
    scans = _SCANS3.get(pattern)
    if scans is not None:
        scan, symmetry = scans
        return scan(host if symmetry is None else symmetry(host))
    return _search(host, check_perm(pattern), (), 0)


def normalize_basis(patterns) -> tuple[Perm, ...]:
    """Canonical (sorted, duplicate-checked) form of a pattern set.

    Basis text such as ``"231"`` is refused: :func:`parse_basis` reads it.
    """
    if isinstance(patterns, str):
        raise BasisError(f"a basis is a collection of patterns, not the text "
                         f"{patterns!r}; read basis text with "
                         f"perms.parse_basis")
    pats = [check_perm(p) for p in patterns]
    if not pats:
        raise BasisError("pattern set must be nonempty")
    if any(len(p) == 0 for p in pats):
        raise BasisError("patterns must have length >= 1")
    key = tuple(sorted(pats))
    if len(set(key)) != len(key):
        raise BasisError("duplicate patterns in basis: "
                         + ",".join(format_perm(p) for p in key))
    return key


def parse_basis(text: str) -> tuple[Perm, ...]:
    """The canonical basis of comma-separated one-line patterns.

    >>> parse_basis("312,213")
    ((2, 1, 3), (3, 1, 2))
    """
    return normalize_basis(parse_perm(part) for part in text.split(","))


def format_basis(basis) -> str:
    return ",".join(format_perm(p) for p in normalize_basis(basis))


def avoids_all(host: Perm, basis) -> bool:
    """True iff ``host`` avoids every pattern in ``basis``."""
    return all(not contains(host, p) for p in basis)
