"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code with the package:
containment tries every subsequence, statistics and Dyck factor counts
apply their definitions window by window, classes are built by filtering
itertools output, and the moves of the slot automaton come from an
interval of forbidden slots per pattern and a regex collapse.
"""

import itertools
import re


def naive_contains(host, pattern):
    m = len(pattern)
    if m == 0:
        return True
    for idxs in itertools.combinations(range(len(host)), m):
        vals = [host[i] for i in idxs]
        if all((vals[a] < vals[b]) == (pattern[a] < pattern[b])
               for a in range(m) for b in range(m) if a != b):
            return True
    return False


def naive_class(n, patterns):
    return [p for p in itertools.permutations(range(1, n + 1))
            if not any(naive_contains(p, q) for q in patterns)]


def naive_stat(kind, p):
    n = len(p)
    if kind == "asc":
        return sum(p[i] < p[i + 1] for i in range(n - 1))
    if kind == "des":
        return sum(p[i] > p[i + 1] for i in range(n - 1))
    if kind == "dasc":
        return sum(p[i] < p[i + 1] and p[i + 1] < p[i + 2] for i in range(n - 2))
    if kind == "ddes":
        return sum(p[i] > p[i + 1] and p[i + 1] > p[i + 2] for i in range(n - 2))
    if kind == "pk":
        return sum(p[i] < p[i + 1] and p[i + 1] > p[i + 2] for i in range(n - 2))
    if kind == "vl":
        return sum(p[i] > p[i + 1] and p[i + 1] < p[i + 2] for i in range(n - 2))
    raise ValueError(kind)


def naive_dist(kind, n, patterns):
    counts = {}
    for p in naive_class(n, patterns):
        v = naive_stat(kind, p)
        counts[v] = counts.get(v, 0) + 1
    return counts


def naive_uud(d):
    """Windows of a Dyck word that read UUD."""
    return sum(d[i:i + 3] == "UUD" for i in range(len(d) - 2))


def naive_interior_uud(d):
    """UUD windows whose second U comes strictly before the last U."""
    last_u = max((i for i, step in enumerate(d) if step == "U"), default=-1)
    return sum(d[i:i + 3] == "UUD" and i + 1 < last_u
               for i in range(len(d) - 2))


def naive_duu(d):
    """Windows of a Dyck word that read DUU."""
    return sum(d[i:i + 3] == "DUU" for i in range(len(d) - 2))


def split_at_max_231(n):
    """S_n(231) split at the maximum n, with the prefix on 1..i-1 and the
    suffix on i..n-1, rebuilt for every prefix; by i, not in lex order."""
    if n == 0:
        yield ()
        return
    for i in range(1, n + 1):
        for a in split_at_max_231(i - 1):
            for b in split_at_max_231(n - i):
                yield a + (n,) + tuple(x + i - 1 for x in b)


def subsets_213_312(n):
    """S_n(213, 312) rebuilt from subsets: an increasing prefix on each
    r-subset of 1..n-1, r = 0..n-1 and the subsets in lex order, then n,
    then the other values decreasing; by r, not in lex order."""
    if n == 0:
        yield ()
        return
    values = range(1, n)
    for r in range(n):
        for prefix in itertools.combinations(values, r):
            suffix = tuple(sorted(set(values) - set(prefix), reverse=True))
            yield prefix + (n,) + suffix


def random_dyck(rng, n):
    """A uniform Dyck word of semilength n, drawn with ``rng``.

    Cycle lemma: of the rotations of a word with n Us and n + 1 Ds, exactly
    the one starting after the walk's first minimum stays at or above its
    start until the final D.
    """
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    h = low = cut = 0
    for i, s in enumerate(steps):
        h += 1 if s == "U" else -1
        if h < low:
            low, cut = h, i + 1
    return "".join(steps[cut:] + steps[:cut])[:-1]


# pattern -> the slots lo..hi that a value placed in slot j forbids, among
# the slots 0..top around the prefix's values once it is placed, with the
# new value between slots j and j + 1; none when lo > hi
_FORBID = {
    # above it, unless it is the minimum
    (1, 2, 3): lambda j, top: (j + 1, top if j else j),
    # below it, unless it is the maximum
    (3, 2, 1): lambda j, top: (0 if j < top - 1 else j + 1, j),
    # between the minimum and it
    (1, 3, 2): lambda j, top: (1, j),
    # between it and the maximum
    (3, 1, 2): lambda j, top: (j + 1, top - 1),
    # above its upper neighbour
    (2, 1, 3): lambda j, top: (j + 2, top),
    # below its lower neighbour
    (2, 3, 1): lambda j, top: (0, j - 1),
}


def interval_moves(flags, mark, key):
    """The transfer map {next state: slots} of a slot-automaton state of
    these flags and mark over the length-3 patterns of ``key``.

    Each allowed slot j is split in two around a new value, every pattern
    forbids one interval of the slots (``_FORBID``), and the flags below
    and above the new value each have their runs of forbidden slots
    collapsed by a regex.  A next state is (flags, the number of flags
    below the new value, whether j is at or above ``mark``).
    """
    slots = {}
    top = len(flags)
    for j in range(top):
        if not flags[j]:
            continue
        new = bytearray(flags)
        new.insert(j, 1)
        for p in key:
            lo, hi = _FORBID[p](j, top)
            if lo <= hi:
                new[lo:hi + 1] = bytes(hi + 1 - lo)
        below = re.sub(b"\0\0+", b"\0", bytes(new[:j + 1]))
        above = re.sub(b"\0\0+", b"\0", bytes(new[j + 1:]))
        state = (below + above, len(below), j >= mark)
        slots[state] = slots.get(state, 0) + 1
    return slots
