"""Bijections between restricted permutations, Dyck words, and binary words.

Seven maps, each with its inverse where the map is not an involution:

* ``to_dyck_231`` / ``from_dyck_231`` — S_n(231) <-> Dyck words of
  semilength n: the operation word of stack sorting, U for a push and D
  for a pop (Knuth, TAOCP §2.2.1).  Peaks correspond to DUU factors of
  the image.
* ``to_dyck_321`` / ``from_dyck_321`` — S_n(321) <-> Dyck words of
  semilength n, via the lattice path through the non-left-to-right-maxima
  points.  Peaks correspond to UUD factors strictly before the last
  up-step.
* ``to_indec_dyck_321`` — S_n(321) -> indecomposable words of semilength
  n + 1, by wrapping the previous image in U...D.  Descents correspond to
  UUD factors strictly before the last up-step.
* ``rewrite_312_to_321`` / ``rewrite_321_to_312`` — S_n(312) <-> S_n(321),
  fixing every left-to-right maximum in position and value.  Preserves
  peaks.
* ``uud_des_involution`` — an involution on Dyck words of semilength n
  exchanging the populations {uud = k, des = k+1} and {uud = k+1, des = k},
  where des is taken of the 321-avoiding preimage.  Fixed points are
  exactly the words with uud count equal to that descent count.
* ``encode_132_213`` / ``decode_132_213`` — S_n(132,213) <-> binary words
  of length n - 1, for n >= 1 (ascent indicators; members are skew sums of
  increasing runs).
* ``encode_213_231`` / ``decode_213_231`` — S_n(213,231) <-> binary words
  of length n - 1, for n >= 1 (each entry is the minimum or the maximum of
  its suffix).
* ``encode_123_132`` / ``decode_123_132`` — S_n(123,132) <-> binary words
  of length n - 1, for n >= 1, built by repeatedly removing the entry 1
  from the last or second-to-last position.

All forward maps validate their avoidance precondition and raise
:class:`PatternViolation` otherwise.  The three encodings are defined for
n >= 1 and refuse the empty permutation with
:class:`EmptyPermutationError`.

Each map decides its domain inside the pass it already makes, not in a
pass of its own: stack sorting pops 1..n in order exactly on S_n(231), a
stack realises exactly S_n(312) (Knuth, TAOCP §2.2.1), a permutation avoids
321 exactly when its non-left-to-right maxima increase, and each encoder's
loop succeeds exactly on its class.  When the pass refuses an input,
:func:`_require_avoiding` (or :func:`_require_encodable`) runs on it to
raise the error, so each map refuses the same inputs with the same
exception as a check made before the pass would.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NoReturn

from .dyck import check_dyck, interior_uud_count, semilength, uud_count
from .perms import Perm, check_perm, contains, format_perm, reduce_word


class PatternViolation(ValueError):
    """Input permutation contains a pattern the map's domain forbids."""

    def __init__(self, perm: Perm, pattern: Perm):
        super().__init__(
            f"permutation {format_perm(perm)} contains {format_perm(pattern)}")
        self.perm = perm
        self.pattern = pattern


class InvalidBitsError(ValueError):
    """Input is not a word over {0, 1}."""


class EmptyPermutationError(ValueError):
    """A binary encoding was given the empty permutation.

    The encodings send S_n to the words of length n - 1, so they are
    defined for n >= 1 only; the empty word is the image of (1,).
    """


class InvariantError(ValueError):
    """A map's internal invariant failed on an input that passed its checks.

    Raised in place of ``assert``, so that the checks also run under -O.
    """


def _require_avoiding(p: Perm, *patterns: Perm) -> Perm:
    p = check_perm(p)
    for pattern in patterns:
        if contains(p, pattern):
            raise PatternViolation(p, pattern)
    return p


def _require_encodable(p: Perm, *patterns: Perm) -> Perm:
    p = _require_avoiding(p, *patterns)
    if not p:
        raise EmptyPermutationError("the binary encodings need n >= 1")
    return p


def _refuse(check, p, *patterns: Perm) -> NoReturn:
    """Raise what ``check`` raises for ``p``, which a map's own pass refused.

    Should ``check`` accept ``p``, the pass and the check disagree, and
    :class:`InvariantError` says so.
    """
    check(p, *patterns)
    raise InvariantError(f"{p!r} passes its check, not its map")


def check_bits(bits: str) -> str:
    if not set(bits) <= {"0", "1"}:
        raise InvalidBitsError(f"expected a word over {{0,1}}: {bits!r}")
    return bits


# -- S_n(231) <-> Dyck ------------------------------------------------------

def to_dyck_231(p: Perm) -> str:
    """Map a 231-avoiding permutation to a Dyck word of equal semilength.

    Stack-sort ``p``: before pushing an entry, pop every smaller entry off
    the stack; at the end, pop the rest.  A push is U and a pop is D.  The
    word for ``a (max) b`` is ``word(a) U word(b) D``; singletons map to UD
    and the empty permutation to the empty word.

    The pops come out as 1, 2, ..., n exactly when ``p`` is a permutation
    that avoids 231, so the sort is its own domain check.
    """
    p = tuple(p)
    out = []
    stack: list[int] = []
    pops = []
    for x in p:
        while stack and stack[-1] < x:
            pops.append(stack.pop())
            out.append("D")
        stack.append(x)
        out.append("U")
    # the rest of the stack pops from the top down
    if pops + stack[::-1] != list(range(1, len(p) + 1)):
        _refuse(_require_avoiding, p, (2, 3, 1))
    out.append("D" * len(stack))
    return "".join(out)


def from_dyck_231(d: str) -> Perm:
    """Inverse of :func:`to_dyck_231`.

    A 231-avoider stack-sorts to 1..n, so the k-th pop outputs k: each U
    pushes the rank, among all Ds, of its matching D.  A D with no U to
    match, a letter other than U and D, or a U left unmatched at the end
    shows that ``d`` is not a Dyck word.
    """
    out: list[int] = []
    pending: list[int] = []  # indices in ``out`` of the unmatched Us
    rank = 0
    for step in d:
        if step == "U":
            pending.append(len(out))
            out.append(0)
        elif step == "D" and pending:
            rank += 1
            out[pending.pop()] = rank
        else:
            _refuse(check_dyck, d)
    if pending:
        _refuse(check_dyck, d)
    return tuple(out)


# -- S_n(321) <-> Dyck ------------------------------------------------------

def to_dyck_321(p: Perm) -> str:
    """Map a 321-avoiding permutation to a Dyck word of equal semilength.

    Walk the lattice points (position, value) of the entries that are not
    left-to-right maxima: each contributes the E steps needed to reach its
    column followed by the N steps to reach its row, with a final run to
    the corner (n + 1, n); then read E as U and N as D.  The path exists
    exactly when those entries increase, that is, when ``p`` avoids 321.
    """
    p = check_perm(p)
    n = len(p)
    out = []
    x, y = 1, 0
    top = 0  # the largest entry so far
    for pos, val in enumerate(p, start=1):
        if val > top:
            top = val
            continue
        if val < y:
            _refuse(_require_avoiding, p, (3, 2, 1))
        out.append("U" * (pos - x))
        out.append("D" * (val - y))
        x, y = pos, val
    out.append("U" * (n + 1 - x))
    out.append("D" * (n - y))
    return "".join(out)


def from_dyck_321(d: str) -> Perm:
    """Inverse of :func:`to_dyck_321`.

    The block split decides the Dyck condition.  A path falls lowest at
    the ends of its D-runs, so ``d`` is a Dyck word exactly when no block
    ends below the axis and ``d`` holds only Us and Ds, as many of each.
    """
    # each U-run/D-run block ends at a corner (position, value) of a
    # non-left-to-right maximum, at height x - 1 - y; the last block ends
    # at column n + 1
    corners = []
    x, y = 1, 0
    for block in d.replace("DU", "D U").split()[:-1]:
        up = block.find("D")
        x += up
        y += len(block) - up
        if y >= x:
            _refuse(check_dyck, d)
        corners.append((x, y))
    if not len(d) == 2 * d.count("U") == 2 * d.count("D"):
        _refuse(check_dyck, d)
    # the maxima take the remaining values in increasing order.  Values
    # rise with positions: deleting from the top and inserting from the
    # left leaves every earlier deletion or insertion in place
    out = list(range(1, semilength(d) + 1))
    for _, val in reversed(corners):
        del out[val - 1]
    for pos, val in corners:
        out.insert(pos - 1, val)
    return tuple(out)


def to_indec_dyck_321(p: Perm) -> str:
    """Wrap the Dyck image of a 321-avoider in U...D.

    The result is an indecomposable word of semilength n + 1 whose
    interior UUD count equals the number of descents of ``p``.
    """
    return "U" + to_dyck_321(p) + "D"


# -- S_n(312) <-> S_n(321) --------------------------------------------------

def rewrite_312_to_321(p: Perm) -> Perm:
    """Rewrite a 312-avoider as the 321-avoider with the same maxima.

    Left-to-right maxima keep position and value; the remaining entries
    are rearranged into increasing order.  Peak count is preserved.

    A stack fed 1..n outputs ``p`` exactly when ``p`` avoids 312 (Knuth,
    TAOCP §2.2.1): an entry above every earlier one is a maximum and pushes
    the values up to it, and each entry must then be on top.
    """
    p = check_perm(p)
    stack: list[int] = []
    top = 0  # the largest entry so far, and the last value pushed
    others = []  # positions of the entries that are not maxima
    for i, v in enumerate(p):
        if v > top:
            stack.extend(range(top + 1, v + 1))
            top = v
        else:
            others.append(i)
        if stack.pop() != v:
            _refuse(_require_avoiding, p, (3, 1, 2))
    out = list(p)
    for i, v in zip(others, sorted(p[i] for i in others)):
        out[i] = v
    return tuple(out)


def rewrite_321_to_312(p: Perm) -> Perm:
    """Inverse of :func:`rewrite_312_to_321`.

    Each non-maximum position receives the largest unused value below the
    most recent left-to-right maximum.
    """
    p = check_perm(p)
    top = 0
    tops = [(top := v) if v > top else top for v in p]  # the running maxima
    avail = [v for v, t in zip(p, tops) if v < t]
    if avail != sorted(avail):  # p avoids 321 when its non-maxima increase
        _refuse(_require_avoiding, p, (3, 2, 1))
    return tuple([v if v == t else avail.pop(bisect_left(avail, t) - 1)
                  for v, t in zip(p, tops)])


# -- the UUD/descent involution ---------------------------------------------

def uud_des_involution(d: str) -> str:
    """Involution on Dyck words trading a leading UD run for a terminal rise.

    Write s for the uud count of ``d`` and t for the descent count of the
    321-avoiding preimage of ``d``.  By the psi-hat identity of
    :func:`to_indec_dyck_321` (checked by ``PSI_HAT_DES_TRANSPORT``), t is
    the interior UUD count of U d D, so no preimage is built.  Then:

    * s == t: ``d`` is fixed.
    * s == t - 1: ``d`` = (UD)^i d' D U D^j with i maximal and d' not
      beginning in UD; the image is d' D U U^i D^i D^j.  The all-UD word
      (UD)^n, whose middle part is empty, maps to U^n D^n.
    * s == t + 1: ``d`` = d' D U^i D^j with i >= 2 the terminal rise and
      j the terminal fall; the image is (UD)^(i-1) d' D U D^(j-i+1).  The
      pyramid U^n D^n, which has no step before its rise, maps to (UD)^n.
    """
    check_dyck(d)
    n = semilength(d)
    s = uud_count(d)
    t = interior_uud_count("U" + d + "D")
    if s == t:
        return d
    if s == t - 1:
        if d == "UD" * n:
            return "U" * n + "D" * n
        i = 0
        while d.startswith("UD", 2 * i):
            i += 1
        body = d[2 * i:]
        j = len(body) - len(body.rstrip("D"))
        core = body[:len(body) - j]
        if not (i >= 1 and j >= 1 and core.endswith("DU")):
            raise InvariantError(f"{d} is not (UD)^i d' DU D^j with i, j >= 1")
        return core[:-2] + "DU" + "U" * i + "D" * (i + j)
    # s == t + 1
    if d == "U" * n + "D" * n:
        return "UD" * n
    j = len(d) - len(d.rstrip("D"))
    rest = d[:len(d) - j]
    i = len(rest) - len(rest.rstrip("U"))
    head = rest[:len(rest) - i]
    if not (i >= 2 and j >= i and head.endswith("D")):
        raise InvariantError(f"{d} is not d' D U^i D^j with j >= i >= 2")
    return "UD" * (i - 1) + head[:-1] + "DU" + "D" * (j - i + 1)


# -- binary encodings of the two-pattern classes -----------------------------

def encode_132_213(p: Perm) -> str:
    """Ascent-indicator word of a {132,213}-avoider (1 = ascent).

    ``p`` is in the domain exactly when the word decodes back to ``p``.
    """
    p = tuple(p)
    bits = "".join(["1" if a < b else "0" for a, b in zip(p, p[1:])])
    if decode_132_213(bits) != p:
        _refuse(_require_encodable, p, (1, 3, 2), (2, 1, 3))
    return bits


def decode_132_213(bits: str) -> Perm:
    """Inverse of :func:`encode_132_213`.

    The maximal runs of 1s give the lengths of increasing blocks, stacked
    so that each block sits below its predecessor.
    """
    check_bits(bits)
    runs = [len(part) + 1 for part in bits.split("0")]
    out = []
    top = sum(runs)
    for r in runs:
        out.extend(range(top - r + 1, top + 1))
        top -= r
    return tuple(out)


def encode_213_231(p: Perm) -> str:
    """Suffix-extreme word of a {213,231}-avoider.

    Bit i is 0 when position i holds the maximum of the remaining suffix
    and 1 when it holds the minimum.  ``p`` is in the domain exactly when
    every entry is one end of the values left and the last is the one left.
    """
    p = tuple(p)
    lo, hi = 1, len(p)
    out = []
    for v in p[:-1]:
        if v == hi:
            out.append("0")
            hi -= 1
        elif v == lo:
            out.append("1")
            lo += 1
        else:
            _refuse(_require_encodable, p, (2, 1, 3), (2, 3, 1))
    if p[-1:] != (lo,):
        _refuse(_require_encodable, p, (2, 1, 3), (2, 3, 1))
    return "".join(out)


def decode_213_231(bits: str) -> Perm:
    """Inverse of :func:`encode_213_231`."""
    check_bits(bits)
    lo, hi = 1, len(bits) + 1
    out = []
    for b in bits:
        if b == "0":
            out.append(hi)
            hi -= 1
        else:
            out.append(lo)
            lo += 1
    out.append(lo)
    return tuple(out)


def encode_123_132(p: Perm) -> str:
    """Binary word of a {123,132}-avoider.

    In such a permutation the entry 1 sits in one of the last two
    positions.  Working from the full permutation down to a singleton,
    record 1 when the last entry is 1 (and drop it), or 0 when the
    second-to-last entry is 1 (drop that entry); the recorded bits, read
    from the innermost step outward, form the word.

    Each step drops the smallest entry left, so after k steps the entries
    left are exactly k + 1..n and the reduced 1 is the value k + 1.  The
    map works on the original values, so it runs in linear time.  ``p``
    is in the domain exactly when every step finds its value and n is left.

    >>> encode_123_132((6, 5, 3, 2, 4, 1))
    '11001'
    """
    p = tuple(p)
    bits = []
    q = list(p)
    for low in range(1, len(p)):
        if q[-1] == low:
            bits.append("1")
            q.pop()
        elif q[-2] == low:
            bits.append("0")
            del q[-2]
        else:
            _require_encodable(p, (1, 2, 3), (1, 3, 2))
            raise InvariantError(
                f"1 is not in the last two positions of {reduce_word(q)}")
    if q != [len(p)]:
        _refuse(_require_encodable, p, (1, 2, 3), (1, 3, 2))
    return "".join(reversed(bits))


def decode_123_132(bits: str) -> Perm:
    """Inverse of :func:`encode_123_132`.

    Reading the word left to right starting from the single entry n: bit 1
    appends the next unused value (n - i) at the end, bit 0 inserts it
    immediately before the current last entry.

    >>> decode_123_132("11001")
    (6, 5, 3, 2, 4, 1)
    """
    check_bits(bits)
    n = len(bits) + 1
    out = [n]
    for i, b in enumerate(bits, start=1):
        if b == "1":
            out.append(n - i)
        else:
            out.insert(len(out) - 1, n - i)
    return tuple(out)
