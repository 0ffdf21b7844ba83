"""Dyck words and their factor statistics.

A Dyck word is a string over {U, D} with equally many U and D steps whose
every prefix has at least as many Us as Ds; the empty word is allowed.  A
nonempty Dyck word is indecomposable when it returns to height 0 only at
the very end.

Factors are contiguous blocks of steps and occurrences may overlap.  Two
counts recur throughout: the number of UUD factors, and the number of UUD
factors lying strictly before the last up-step (an occurrence starting at
index i counts when step i+1 comes strictly before the last U).
"""

from __future__ import annotations


class InvalidDyckError(ValueError):
    """Not a Dyck word; ``position`` is the 1-based index of the defect."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def check_dyck(steps: str) -> str:
    """Validate ``steps`` as a Dyck word over {U, D} and return it."""
    height = 0
    for i, ch in enumerate(steps):
        if ch == "U":
            height += 1
        elif ch == "D":
            height -= 1
        else:
            raise InvalidDyckError(f"unexpected step {ch!r}", i + 1)
        if height < 0:
            raise InvalidDyckError("prefix falls below the axis", i + 1)
    if height != 0:
        raise InvalidDyckError("unbalanced word", len(steps))
    return steps


def parse_dyck(text: str, up: str = "U", down: str = "D") -> str:
    """Parse a Dyck word written in a two-letter alphabet (default U/D)."""
    steps = []
    for i, ch in enumerate(text):
        if ch == up:
            steps.append("U")
        elif ch == down:
            steps.append("D")
        else:
            raise InvalidDyckError(f"unexpected step {ch!r}", i + 1)
    return check_dyck("".join(steps))


def semilength(d: str) -> int:
    return len(d) // 2


def heights(d: str) -> list[int]:
    """Height after each step."""
    out = []
    h = 0
    for ch in d:
        h += 1 if ch == "U" else -1
        out.append(h)
    return out


def factor_count(d: str, factor: str) -> int:
    """Number of (possibly overlapping) occurrences of ``factor`` in ``d``.

    >>> factor_count("UDUDUD", "DU")
    2
    """
    if not factor:
        raise ValueError("factor must be nonempty")
    return sum(1 for i in range(len(d) - len(factor) + 1)
               if d.startswith(factor, i))


def uud_count(d: str) -> int:
    """Number of UUD factors.

    UUD cannot overlap itself, so ``str.count`` finds every occurrence.
    """
    return d.count("UUD")


def interior_uud_count(d: str) -> int:
    """Number of UUD factors strictly before the last up-step.

    An occurrence at index i is counted iff i + 1 < index of the last U,
    i.e. the occurrence's second U is not the final up-step of the word.

    >>> interior_uud_count("UUUDDDUD")
    1
    >>> interior_uud_count("UUUDDDUUDD")
    1
    >>> interior_uud_count("UUDD")
    0
    """
    # an occurrence's D is never the last U, so the counted occurrences are
    # those that end before it
    return uud_count(d[:d.rfind("U")])


def reverse_path(d: str) -> str:
    """Reverse the step sequence and swap U with D.

    >>> reverse_path("UUDDUD")
    'UDUUDD'
    """
    return d[::-1].translate(str.maketrans("UD", "DU"))


def is_indecomposable(d: str) -> bool:
    """True iff ``d`` is nonempty and touches height 0 only at its end."""
    if not d:
        return False
    h = 0
    for ch in d[:-1]:
        h += 1 if ch == "U" else -1
        if h == 0:
            return False
    return True


def decompose(d: str) -> list[str]:
    """Split ``d`` into its indecomposable factors.

    >>> decompose("UDUUDD")
    ['UD', 'UUDD']
    >>> decompose("")
    []
    """
    parts = []
    h = 0
    start = 0
    for i, ch in enumerate(d):
        h += 1 if ch == "U" else -1
        if h == 0:
            parts.append(d[start:i + 1])
            start = i + 1
    return parts
