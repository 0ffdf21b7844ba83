"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code with the package:
containment tries every subsequence, statistics and Dyck factor counts
apply their definitions window by window, and classes are built by
filtering itertools output.
"""

import itertools


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
