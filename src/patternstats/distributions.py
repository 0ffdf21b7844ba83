"""Distribution tables, symmetry identities, and the verification harness.

``dist_table`` produces the rows a(n, k) of a (statistic, basis) pair for
a range of n by one of three methods, and ``distribution`` is its
one-row case.  :data:`METHODS` is the one table of the routes (the
``dist --method`` choices are its keys).  A route answers names: its
``rows(name, ns, caps)`` gives a whole range of one name in one call,
and its ``name(stat, key)`` gives the name under which it answers a
(statistic, basis) cell, or None.  The ``oracle``'s names are the cells
themselves, and it counts or lists the class; ``closed_form``'s are the
formula ids :func:`~patternstats.formulas.formula_for` finds, and it
reads the formula's rows; ``series``'s are the names of
:data:`~patternstats.series.SERIES`, and it solves the generating
function once, to the largest n.  A route names only its own cells;
``dist_table`` derives the rest.  It takes the first cell of
:func:`_sources` that the route names: the cell itself, then its
r/c/rc images (the statistic through
:data:`~patternstats.stats.STAT_IMAGE`), each also with asc and des
swapped, and pk over 321 for pk over 312.  Only ``dist_table`` refuses a
cell no route answers.  The oracle's own cell is always its first, so
oracle rows never pass through ``STAT_IMAGE``, and the symmetry checks
test on them the identities the closure uses.  Every route checks every
n of a range, in order, before its first enumeration, row or solve (a
closed form against its stated range and the series cap), so a range
that crosses a limit fails at its first refused size.  Where several
methods answer a pair they must agree; ``verify_all`` checks that,
every bijection property, every series identity, and the
reverse/complement symmetry identities, and reports the first
counterexample of each failing check.  The closed-form and series
checks are one check, ``_check_method``, that compares the oracle rows
of its cells with the route's rows through ``dist_table``, the function
``dist`` calls.  ``SERIES_B_PK231`` and ``INTERIOR_UUD_INDEC_DES`` read
the series B and D and the formula PK231 by name through the same
routes, so every series or closed-form row a check reads passes its
route's size checks, and a fault in a route fails a check.  A symmetry
family names two statistics, and :data:`~patternstats.stats.STAT_IMAGE`
gives the statistic each is compared with over each image class.

Each check is registered once, in the order ``verify --list`` prints, as a
function that records its comparisons on a :class:`VerifyReport`; the
three class-size checks are one runner over rows of (basis, first n,
size(n)).  One
runner makes the report, applies the check's size bound, and reports an
error a map raises on an image another map produced (a pattern violation,
a broken invariant, a malformed bit or Dyck word) as the check's failure.
Cap errors, any other error, and a negative ``max_n`` still raise.  A
comparison's label is a template with its arguments, formatted only when
the comparison is its check's first failure.

One run per call: ``verify_all`` makes one :class:`_Run` and passes it to
every check it runs, and a check run alone, ``symmetry_check`` and the
oracle route of ``dist_table`` each make their own.  The run is dropped
when the call returns, and the module keeps nothing between calls, so no
earlier call can change a result.  A run lists the Dyck words of each
semilength once, maps each word through ``from_dyck_321`` and
``from_dyck_231`` at most once, on the word's first use, and holds the
oracle rows of each (basis, n) the call reads, each row's keys in
increasing order.  A basis of length-3 patterns is counted, not listed:
its first read makes one :func:`~patternstats.generate.count_lengths`
call that fills the rows of every length up to the run's top (the top of
a ``dist`` range, a check's ``max_n``), so a range costs one call, not
one per n.  The call counts only the statistics the run asks for: the
one statistic of a ``dist`` row, all six for ``verify``.  A basis with
a pattern of another length is listed at each n and its members tallied
for all six, one :func:`~patternstats.stats.word_stats` per distinct
up-down word.  Generation caps arrive as a
:class:`~patternstats.generate.Caps` value, which is passed whole to
:func:`~patternstats.generate.gen_class`; the cap of the basis is checked
by :func:`~patternstats.generate.class_cap` at each n before any pass,
and a pass counts no length the caps refuse.  Caps go by the kind of
work: a basis of length-3 patterns takes ``caps.structured``, and so do
the words that encode such classes, a Dyck word of semilength n and a
bit word of length n - 1 at n; ``caps.perm`` caps only the n! scans of
any other basis.  One rule refuses a size before any work:
every loop over n that lists, counts or maps capped objects, in a check,
``symmetry_check`` or the oracle route, iterates :meth:`_Run.sizes`,
which checks every n, in order, against the cap of what the loop reads
and only then hands the sizes back, so a call fails at its first capped
size before it lists, counts or solves anything.
Basis text is read by :func:`~patternstats.perms.parse_basis`, a basis's
images by :data:`~patternstats.perms.SYMMETRIES`, and a formula's row by
:func:`~patternstats.formulas.closed_form_row`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import bijections, dyck, formulas, generate, series, stats
from .dyck import factor_count, interior_uud_count, uud_count
from .generate import Caps
from .perms import (
    SYMMETRIES,
    Perm,
    avoids_all,
    format_basis,
    format_perm,
    ltr_maxima,
    normalize_basis,
    parse_basis,
)
from .stats import STATS, all_stats, up_down, word_stats

_SINGLE_BASES = ("123", "132", "213", "231", "312", "321")
_PAIR_BASES = ("123,321", "213,312", "132,213", "213,231", "123,132", "132,321")


class UnsupportedMethodError(ValueError):
    """The (statistic, basis, method) combination is not available."""


# -- oracle rows --------------------------------------------------------------

def clear_caches() -> None:
    """Do nothing: the engine keeps nothing between calls.  Every row and
    listing lives in the :class:`_Run` of the call that made it."""


def _tally(members: Iterable[Perm]) -> dict[str, dict[int, int]]:
    # every statistic is a function of the up-down word, so each distinct
    # word is read once
    rows: dict[str, dict[int, int]] = {stat: {} for stat in STATS}
    for w, count in Counter(map(up_down, members)).items():
        for stat, value in word_stats(w).items():
            row = rows[stat]
            row[value] = row.get(value, 0) + count
    return {stat: dict(sorted(row.items())) for stat, row in rows.items()}


class _Run:
    """What one engine call lists and counts; the call drops it when it
    returns.

    Each semilength's Dyck words are listed once, under
    ``caps.structured``, the cap of the classes they encode.
    Each word's 321- or 231-image is computed on its first use, by
    ``bijections.from_dyck_<tag>`` as it stands then; a map that raises
    stores no image, so a later use raises again.

    :meth:`rows` gives the rows {statistic: row} of a (basis, n), with n
    checked against the basis's cap before it is counted or listed; a row
    the run holds is within the cap, which does not change in a run.  A
    basis of length-3 patterns is counted, not listed: its first read
    makes one :func:`~patternstats.generate.count_lengths` call for
    ``stats`` to ``top`` (or to n, if larger), capped, which fills the
    rows of every length up to it.  A basis with a pattern of another length is listed
    at n and its members tallied for all six statistics."""

    def __init__(self, caps: Caps, top: int, stats: Iterable[str] = STATS):
        self.caps, self.top, self.stats = caps, top, tuple(stats)
        self._dyck: dict[int, list[str]] = {}
        self._images: dict[str, dict[str, Perm]] = {"321": {}, "231": {}}
        self._rows: dict[tuple, dict[str, dict[int, int]]] = {}

    def sizes(self, ns: Sequence[int], *keys: tuple) -> Sequence[int]:
        """``ns`` as it is, once each n has been checked, in order, against
        the cap of what a loop reads at n: the class of each basis in
        ``keys`` (:func:`~patternstats.generate.class_cap`), or with no
        basis a Dyck word of semilength n, whose cap, ``caps.structured``,
        is also that of the class and of the bit words of length n - 1 it
        encodes.  Every loop over n that lists, counts or maps capped
        objects iterates this, so a call refuses its first capped size
        before any work."""
        for n in ns:
            for key in keys:
                generate.class_cap(n, key, self.caps)
            if not keys:
                generate._check_cap(n, self.caps.structured, "Dyck word")
        return ns

    def rows(self, key: tuple, n: int) -> dict[str, dict[int, int]]:
        if (key, n) not in self._rows:
            cap = generate.class_cap(n, key, self.caps)
            if all(len(p) == 3 for p in key):
                top = min(max(n, self.top), cap)
                counted = generate.count_lengths(top, key, self.stats,
                                                 self.caps)
                for m in range(top + 1):
                    self._rows[key, m] = {stat: rows[m]
                                          for stat, rows in counted.items()}
            else:
                self._rows[key, n] = _tally(
                    generate.gen_class(n, key, self.caps))
        return self._rows[key, n]

    def dyck(self, n: int) -> list[str]:
        if n not in self._dyck:
            self._dyck[n] = list(generate.gen_dyck(n, self.caps.structured))
        return self._dyck[n]

    def indec(self, n: int) -> list[str]:
        # the words gen_indec lists; its callers' sizes check n itself
        return ["U" + d + "D" for d in self.dyck(n - 1)] if n else []

    def from_dyck(self, tag: str, d: str) -> Perm:
        images = self._images[tag]
        p = images.get(d)
        if p is None:
            p = images[d] = getattr(bijections, f"from_dyck_{tag}")(d)
        return p


# (statistic, basis) -> name of its series in ``series.SERIES``
_SERIES_FOR = {(stat, parse_basis(text)): name
               for name, (_, cells) in series.SERIES.items()
               for stat, text in cells}


def _oracle(cell: tuple[str, tuple], ns: Sequence[int], caps: Caps) -> dict:
    # the one run counts to the largest n, once every n is checked
    stat, key = cell
    run = _Run(caps, 0, (stat,))
    run.top = max(run.sizes(ns, key), default=0)
    return {n: run.rows(key, n)[stat] for n in ns}


def _closed_form(fid: str, ns: Sequence[int], caps: Caps) -> dict:
    # every n is checked, in order, against the formula's smallest n and the
    # series cap before the first row
    for n in ns:
        formulas._stated_at(fid, n)
        caps.check_series(n)
    return {n: formulas.closed_form_row(fid, n) for n in ns}


def _series(name: str, ns: Sequence[int], caps: Caps) -> dict:
    # every n is checked, in order, before the one solve to the largest
    for n in ns:
        series._check_max_n(n)
        caps.check_series(n)
    expansion = series.expand(name, max(ns, default=0))
    return {n: expansion.row_counts(n) for n in ns}


class Route(NamedTuple):
    """One ``dist --method``: ``rows(name, ns, caps) -> {n: row}`` answers
    every length of ns in one call for a name the route knows, and
    ``name(stat, key)`` gives the name under which the route answers the
    (statistic, basis) cell, or None."""

    rows: Callable[..., dict]
    name: Callable[[str, tuple], object]


# ``dist --method`` name -> its route
METHODS = {
    "oracle": Route(_oracle, lambda *cell: cell),
    "closed_form": Route(_closed_form, lambda *cell: getattr(
        formulas.formula_for(*cell), "id", None)),
    "series": Route(_series, lambda *cell: _SERIES_FOR.get(cell)),
}


def _sources(stat: str, key: tuple) -> Iterator[tuple[str, tuple, bool]]:
    """The cells whose rows are the rows of (stat, key), as (statistic,
    basis, flip), the cell itself first.  Each r/c/rc image comes with its
    asc/des swap, whose rows are read k -> n - 1 - k (flip), and pk over
    312 with pk over 321."""
    for t in (None, "r", "c", "rc"):
        s, image = ((stat, key) if t is None else
                    (stats.STAT_IMAGE[t][stat], transform_basis(key, t)))
        yield s, image, False
        if s in ("asc", "des"):
            yield "des" if s == "asc" else "asc", image, True
        if (s, image) == ("pk", ((3, 1, 2),)):
            yield "pk", ((3, 2, 1),), False


@dataclass
class DistTable:
    """Rows of one (statistic, basis) distribution keyed by length."""

    basis: tuple[Perm, ...]
    stat: str
    method: str
    rows: dict[int, dict[int, int]]

    def row_json(self, n: int) -> dict:
        counts = {str(k): c for k, c in sorted(self.rows[n].items())}
        return {
            "basis": [format_perm(p) for p in self.basis],
            "stat": self.stat,
            "n": n,
            "counts": counts,
            "method": self.method,
        }

    def to_json(self) -> str:
        """Exactly ``json.dumps(..., indent=2)`` of the :meth:`row_json` dicts.

        One length gives that row's object (so does a range of one length,
        such as ``4-4``), several give the list of their rows in increasing
        n, and none gives ``[]``.

        The text is written here, not by ``json``, whose indenting encoder
        is pure Python: the strings of a table are encoded once and each
        row adds only its n and counts.
        """
        ns = sorted(self.rows)
        pad = "  " if len(ns) > 1 else ""
        field, item = pad + "  ", pad + "    "
        basis = _json_block([item + json.dumps(format_perm(p))
                             for p in self.basis], field, "[]")
        head = (f'{pad}{{\n{field}"basis": {basis},\n'
                f'{field}"stat": {json.dumps(self.stat)},\n{field}"n": ')
        tail = f',\n{field}"method": {json.dumps(self.method)}\n{pad}}}'
        rows = [f'{head}{n},\n{field}"counts": '
                + _json_block([f'{item}"{k}": {c}'
                               for k, c in sorted(self.rows[n].items())],
                              field, "{}") + tail
                for n in ns]
        return rows[0] if len(rows) == 1 else _json_block(rows, "", "[]")


def _json_block(items: list[str], pad: str, brackets: str) -> str:
    # what json.dumps(indent=2) writes for a list or dict whose items are
    # these already indented lines, its closing bracket at pad
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + pad + brackets[1]


def dist_table(stat: str, basis, ns: Iterable[int], method: str = "oracle",
               caps: Caps = Caps()) -> DistTable:
    """The rows of every length in ``ns``, by one call of the method on the
    name it gives the first cell of :func:`_sources` it answers.

    A ``range`` is passed on as it is; any other iterable is listed once."""
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}")
    key = normalize_basis(basis)
    if method not in METHODS:
        raise UnsupportedMethodError(f"unknown method {method!r}")
    route = METHODS[method]
    for source_stat, source_key, flip in _sources(stat, key):
        name = route.name(source_stat, source_key)
        if name is not None:
            break
    else:
        raise UnsupportedMethodError(f"no {method.replace('_', ' ')} for "
                                     f"{stat} over {format_basis(key)}")
    ns = ns if isinstance(ns, range) else list(ns)
    rows = route.rows(name, ns, caps)
    if flip:
        # asc + des = n - 1 for n >= 1; the empty permutation has neither
        rows = {n: {n - 1 - k: c for k, c in reversed(row.items())} if n
                else row for n, row in rows.items()}
    return DistTable(key, stat, method, rows)


def distribution(stat: str, basis, n: int, method: str = "oracle",
                 caps: Caps = Caps()) -> dict[int, int]:
    """Counts {k: a(n, k)} for the statistic over the class, zeros omitted."""
    return dist_table(stat, basis, [n], method, caps).rows[n]


def class_size(n: int, basis, caps: Caps = Caps()) -> int:
    """Number of length-n permutations avoiding the basis."""
    return sum(1 for _ in generate.gen_class(n, basis, caps))


# -- verification -------------------------------------------------------------

def _label(where: str, args: tuple) -> str:
    # a label given with arguments is a str.format template, formatted only
    # when its comparison is the first to fail; one without is taken as is
    return where.format(*args) if args else where


@dataclass
class VerifyReport:
    """One check's outcome: its comparisons and the first that failed."""

    name: str
    max_n: int
    passed: bool = True
    checked: int = 0
    failure: str | None = None

    def eq(self, got, want, where: str, *args) -> None:
        self.checked += 1
        if self.passed and got != want:
            self.passed = False
            self.failure = (f"{_label(where, args)}: "
                            f"got {got!r}, expected {want!r}")

    def ok(self, cond: bool, where: str, *args) -> None:
        self.checked += 1
        if self.passed and not cond:
            self.passed, self.failure = False, _label(where, args)

    def to_dict(self) -> dict:
        return asdict(self)


# check name -> (fn(report, max_n, run), largest n it runs to), in the order
# ``verify --list`` prints
_CHECKS: dict[str, tuple[Callable, int | None]] = {}

# raised by a map on an image another map produced: the check fails, and
# the run goes on
_MAP_ERRORS = (bijections.PatternViolation, bijections.InvariantError,
               bijections.InvalidBitsError, dyck.InvalidDyckError)


def _check(name: str, bound: int | None = None):
    """Register fn(report, max_n, run) as check ``name``, to n <= bound."""
    def register(fn):
        _CHECKS[name] = (fn, bound)
        return fn
    return register


def _run_check(name: str, max_n: int, caps: Caps,
               run: _Run | None = None) -> VerifyReport:
    # a check run alone makes its own run
    fn, bound = _CHECKS[name]
    report = VerifyReport(name, max_n if bound is None else min(max_n, bound))
    try:
        fn(report, report.max_n,
           _Run(caps, report.max_n) if run is None else run)
    except _MAP_ERRORS as exc:
        report.ok(False, f"raised {type(exc).__name__}: {exc}")
    return report


def _tally_words(words: Iterable[str], count) -> dict[int, int]:
    """How many of the words take each value of ``count``."""
    return dict(Counter(map(count, words)))


def _same_rows(report: VerifyReport, left: tuple, right: tuple, where: str,
               max_n: int, run: _Run) -> None:
    """Compare the oracle rows of two (statistic, basis) pairs, n <= max_n."""
    (left_stat, left_key), (right_stat, right_key) = left, right
    for n in run.sizes(range(max_n + 1), left_key, right_key):
        report.eq(run.rows(left_key, n)[left_stat],
                  run.rows(right_key, n)[right_stat],
                  "{} at n={}", where, n)


def _check_sizes(rows: list[tuple[str, int, Callable[[int], int]]],
                 report: VerifyReport, max_n: int, run: _Run) -> None:
    """|S_n(basis)| against size(n) for each row (basis text, first n,
    size), first n <= n <= max_n."""
    for text, first, size in rows:
        key = parse_basis(text)
        for n in run.sizes(range(first, max_n + 1), key):
            report.eq(class_size(n, key, run.caps), size(n),
                      "|S_{}({})|", n, text)


# sizes are looked up at call time, so that a wrapped formula is the one
# called
_check("CARD_SINGLE_CATALAN")(partial(
    _check_sizes, [(text, 0, lambda n: formulas.catalan(n))
                   for text in _SINGLE_BASES]))
_check("CARD_PAIRS")(partial(
    _check_sizes, [(text, 1, lambda n: 2 ** (n - 1))
                   for text in ("213,312", "132,213", "213,231", "123,132")]
    + [("132,321", 1, lambda n: formulas.binom(n, 2) + 1)]))
_check("CARD_123_321_EMPTY")(partial(
    _check_sizes, [("123,321", 5, lambda n: 0)]))


def _reference(key: tuple[Perm, ...], n: int,
               run: _Run) -> tuple[str, Iterable[Perm]]:
    # (its name, a listing) of structured class key at n that shares no rule
    # with the walk: Av(231) and Av(321) from Dyck words, an encoded pair
    # through its decoder, and any other pair as the complements of the walk
    # over the complement basis, whose _NEXT rules are disjoint from its own
    tag = format_basis(key).replace(",", "_")
    if len(key) == 1:
        return "Dyck words", map(partial(run.from_dyck, tag), run.dyck(n))
    if tag in _ENCODINGS:
        if n == 0:
            return "bit words", [()]
        words = generate.gen_bits(n - 1, cap=run.caps.structured)
        return "bit words", map(getattr(bijections, f"decode_{tag}"), words)
    image = transform_basis(key, "c")
    return (f"complements of {format_basis(image)}",
            map(SYMMETRIES["c"], generate.gen_class(n, image, run.caps)))


@_check("STRUCTURED_MATCHES_FILTER", bound=9)
def _check_structured_filter(report: VerifyReport, max_n: int,
                             run: _Run) -> None:
    for key in generate.STRUCTURED:
        text = format_basis(key)
        for n in run.sizes(range(max_n + 1), key):
            structured = sorted(generate.gen_class(n, key, run.caps))
            report.ok(len(set(structured)) == len(structured),
                      "duplicates from structured {} at n={}", text, n)
            route, reference = _reference(key, n, run)
            report.eq(structured, sorted(reference),
                      "structured vs {} for {} at n={}", route, text, n)


def _check_method(method: str, first: int,
                  cells: list[tuple[str, tuple, str]], report: VerifyReport,
                  max_n: int, run: _Run) -> None:
    """The rows ``dist_table`` gives by ``method`` against the oracle's rows
    of each (statistic, basis, label) cell, first <= n <= max_n."""
    ns = run.sizes(range(first, max_n + 1), *(key for _, key, _ in cells))
    routes = [dist_table(stat, key, ns, method, run.caps).rows
              for stat, key, _ in cells]
    for n in ns:
        for (stat, key, label), rows in zip(cells, routes):
            report.eq(rows[n], run.rows(key, n)[stat], "{} at n={}", label, n)


for _spec in formulas.FORMULAS.values():
    _check(f"FORMULA_{_spec.id}")(partial(
        _check_method, "closed_form", _spec.min_n,
        [(_spec.stat, _spec.basis,
          f"{_spec.stat} over {format_basis(_spec.basis)}")]))


_check("SERIES_DES321_ORACLE")(partial(
    _check_method, "series", 0, [("des", parse_basis("321"), "descent row")]))
_check("SERIES_PK321_ORACLE")(partial(
    _check_method, "series", 0, [("pk", parse_basis("321"), "peak row")]))


@_check("SERIES_B_PK231")
def _check_series_b(report: VerifyReport, max_n: int, run: _Run) -> None:
    # identity: B = z(1 - q) + sum a(n,k) q^(k+1) z^(n+1) over the
    # peak counts for 231-avoiders, whose n = 0 row is the single empty
    # permutation; the corrections collapse the z^1 row to exactly 1.
    indec_ns = run.sizes(range(min(max_n, 10) + 1))
    b = METHODS["series"].rows("B", range(max_n + 1), run.caps)
    pk = METHODS["closed_form"].rows("PK231", range(1, max_n), run.caps)
    report.eq(b[0], {}, "empty-word row")
    if max_n >= 1:
        report.eq(b[1], {0: 1}, "row n=1")
    for n in pk:
        report.eq(b[n + 1], {k + 1: v for k, v in pk[n].items()},
                  "row n={} vs shifted counts", n + 1)
    for n in indec_ns:
        report.eq(_tally_words(run.indec(n), uud_count), b[n],
                  "indecomposable UUD tally at n={}", n)


_check("SERIES_DDES_132_213_ORACLE")(partial(
    _check_method, "series", 0,
    [("ddes", parse_basis("132,213"), "double-descent row"),
     ("dasc", parse_basis("132,213"), "double-ascent row")]))


@_check("UUD_DES_EQUIDISTRIBUTION")
def _check_uud_des_equidist(report: VerifyReport, max_n: int,
                            run: _Run) -> None:
    key = parse_basis("321")
    for n in run.sizes(range(max_n + 1)):
        report.eq(_tally_words(run.dyck(n), uud_count),
                  run.rows(key, n)["des"],
                  "UUD tally vs descents at n={}", n)


@_check("INTERIOR_UUD_INDEC_DES")
def _check_interior_uud_indec(report: VerifyReport, max_n: int,
                              run: _Run) -> None:
    # the indecomposables of semilength n encode the class at n - 1, and
    # their tally is row n of D = zG; SERIES_DES321_ORACLE checks G against
    # the same oracle rows
    key = parse_basis("321")
    ns = run.sizes(range(1, max_n + 2))
    d = METHODS["series"].rows("D", ns, run.caps)
    for n in ns:
        tally = _tally_words(run.indec(n), interior_uud_count)
        report.eq(tally, run.rows(key, n - 1)["des"],
                  "interior UUD over indecomposables at n={}", n)
        report.eq(d[n], tally, "series D vs interior UUD tally at n={}", n)


@_check("IOTA_INVOLUTION", bound=8)
def _check_iota(report: VerifyReport, max_n: int, run: _Run) -> None:
    # t is read off the 321-image, not through the map's own shortcut
    psi_inv = partial(run.from_dyck, "321")
    for n in run.sizes(range(max_n + 1)):
        for d in run.dyck(n):
            s = uud_count(d)
            t = stats.des(psi_inv(d))
            e = bijections.uud_des_involution(d)
            report.eq(bijections.uud_des_involution(e), d,
                      "involution at {}", d)
            if s == t:
                report.eq(e, d, "fixed point at {}", d)
            else:
                got = (uud_count(e), stats.des(psi_inv(e)))
                report.eq(got, (t, s), "population swap at {}", d)


@_check("PK_312_EQ_321")
def _check_pk_312_321(report: VerifyReport, max_n: int, run: _Run) -> None:
    _same_rows(report, ("pk", parse_basis("312")), ("pk", parse_basis("321")),
               "peak rows", max_n, run)


@_check("ZETA_PROPERTIES")
def _check_zeta(report: VerifyReport, max_n: int, run: _Run) -> None:
    key = parse_basis("312")
    for n in run.sizes(range(max_n + 1), key):
        for p in generate.gen_class(n, key, run.caps):
            q = bijections.rewrite_312_to_321(p)
            report.ok(avoids_all(q, [(3, 2, 1)]), "image avoids 321 for {}", p)
            report.eq(ltr_maxima(q), ltr_maxima(p),
                      "maxima preserved for {}", p)
            report.eq(stats.pk(q), stats.pk(p), "peaks preserved for {}", p)
            report.eq(bijections.rewrite_321_to_312(q), p,
                      "round trip for {}", p)


@_check("PHI231_TRANSPORT")
def _check_phi231(report: VerifyReport, max_n: int, run: _Run) -> None:
    key = parse_basis("231")
    for n in run.sizes(range(max_n + 1), key):
        for p in generate.gen_class(n, key, run.caps):
            d = bijections.to_dyck_231(p)
            report.eq(run.from_dyck("231", d), p, "round trip for {}", p)
            report.eq(factor_count(d, "DUU"), stats.pk(p),
                      "DUU count for {}", p)


@_check("PSI321_TRANSPORT")
def _check_psi321(report: VerifyReport, max_n: int, run: _Run) -> None:
    rt_bound = min(max_n, 8)
    for n in run.sizes(range(max_n + 1)):
        for d in run.dyck(n):
            p = run.from_dyck("321", d)
            report.ok(avoids_all(p, [(3, 2, 1)]), "image avoids 321 for {}", d)
            report.eq(stats.pk(p), interior_uud_count(d),
                      "interior UUD count for {}", d)
            if n <= rt_bound:
                report.eq(bijections.to_dyck_321(p), d, "round trip for {}", d)


@_check("PSI_HAT_DES_TRANSPORT")
def _check_psi_hat(report: VerifyReport, max_n: int, run: _Run) -> None:
    for n in run.sizes(range(max_n + 1)):
        for d in run.dyck(n):
            p = run.from_dyck("321", d)
            report.eq(stats.des(p), interior_uud_count("U" + d + "D"),
                      "descents vs wrapped interior UUD for {}", d)


def _ascent_word_stats(bits: str) -> dict[str, int]:
    # bit i is 1 exactly when position i is an ascent, so the bits are the
    # up-down word and each statistic counts its factor in them
    return {stat: factor_count(bits, factor)
            for stat, factor in stats.FACTORS.items()}


def _word_stats_123_132(bits: str) -> dict[str, int]:
    initial0 = int(bits.startswith("0"))
    initial00 = int(bits.startswith("00"))
    n10 = factor_count(bits, "10")
    pairs = factor_count(bits, "00") + factor_count(bits, "11")
    return {"asc": initial0 + n10, "des": len(bits) - initial0 - n10,
            "dasc": 0, "ddes": pairs - initial00,
            "pk": factor_count(bits, "01"), "vl": n10 + initial00}


# tag -> (basis, statistics read off the word).  The check is named
# ENC_<tag>_TRANSPORT and runs bijections.decode_<tag> and encode_<tag>,
# looked up at call time so that a wrapped bijection is the one called.
_ENCODINGS = {
    "132_213": (((1, 3, 2), (2, 1, 3)), _ascent_word_stats),
    "213_231": (((2, 1, 3), (2, 3, 1)), _ascent_word_stats),
    "123_132": (((1, 2, 3), (1, 3, 2)), _word_stats_123_132),
}
_STAT_LABELS = {"asc": "ascents", "des": "descents", "dasc": "dasc",
                "ddes": "ddes", "pk": "peaks", "vl": "valleys"}


def _check_encoding(tag: str, report: VerifyReport, max_n: int,
                    run: _Run) -> None:
    # the words of length n - 1 encode the class at n
    basis, word_stats = _ENCODINGS[tag]
    decode = getattr(bijections, f"decode_{tag}")
    encode = getattr(bijections, f"encode_{tag}")
    for n in run.sizes(range(1, max_n + 1), basis):
        for bits in generate.gen_bits(n - 1, cap=run.caps.structured):
            p = decode(bits)
            report.ok(avoids_all(p, basis),
                      "decoded member avoids basis for {}", bits)
            report.eq(encode(p), bits, "round trip for {}", bits)
            st = all_stats(p)
            for stat, want in word_stats(bits).items():
                report.eq(st[stat], want,
                          "{} for {}", _STAT_LABELS[stat], bits)


for _tag in _ENCODINGS:
    _check(f"ENC_{_tag}_TRANSPORT")(partial(_check_encoding, _tag))


# family -> its two statistics; each statistic s over a class equals
# stats.STAT_IMAGE[t][s] over the image of the class under each transform t
_FAMILIES = {"asc_des": ("asc", "des"), "dasc_ddes": ("dasc", "ddes"),
             "pk_vl": ("pk", "vl")}


def transform_basis(basis, transform: str) -> tuple[Perm, ...]:
    """Apply a symmetry of ``perms.SYMMETRIES`` pattern-wise to a basis."""
    key = normalize_basis(basis)
    if transform not in SYMMETRIES:
        raise ValueError(f"unknown transform {transform!r}")
    return normalize_basis(map(SYMMETRIES[transform], key))


def _symmetry_rows(report: VerifyReport, family: str, key: tuple,
                   transform: str, max_n: int, run: _Run) -> None:
    image = transform_basis(key, transform)
    for left_stat in _FAMILIES[family]:
        right_stat = stats.STAT_IMAGE[transform][left_stat]
        _same_rows(report, (left_stat, key), (right_stat, image),
                   f"{left_stat}({format_basis(key)}) vs "
                   f"{right_stat}({format_basis(image)})", max_n, run)


def symmetry_check(family: str, basis, transform: str, max_n: int,
                   caps: Caps = Caps()) -> VerifyReport:
    """Compare one symmetry identity's two oracle tables up to max_n."""
    series._check_max_n(max_n)
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    key = normalize_basis(basis)
    report = VerifyReport(
        f"SYMMETRY_{family.upper()}_{format_basis(key)}_{transform}", max_n)
    _symmetry_rows(report, family, key, transform, max_n, _Run(caps, max_n))
    return report


def _check_symmetry_family(family: str, report: VerifyReport, max_n: int,
                           run: _Run) -> None:
    for text in _SINGLE_BASES + _PAIR_BASES:
        for transform in ("r", "c", "rc"):
            _symmetry_rows(report, family, parse_basis(text), transform,
                           max_n, run)


for _family in _FAMILIES:
    _check(f"SYMMETRY_{_family.upper()}")(
        partial(_check_symmetry_family, _family))


@_check("CLASS_132_213_EQ_213_231")
def _check_132_213_eq_213_231(report: VerifyReport, max_n: int,
                              run: _Run) -> None:
    a, b = parse_basis("132,213"), parse_basis("213,231")
    for stat in STATS:
        _same_rows(report, (stat, a), (stat, b), f"{stat} rows", max_n, run)


def checks() -> dict[str, Callable[..., VerifyReport]]:
    """All registered verification checks, name -> fn(max_n, caps); a
    check called so makes its own run."""
    return {name: partial(_run_check, name) for name in _CHECKS}


def verify_all(max_n: int, selection=None,
               caps: Caps = Caps()) -> list[VerifyReport]:
    """Run all (or the selected) checks and collect their reports."""
    series._check_max_n(max_n)
    registry = checks()
    if selection is None:
        names = list(registry)
    elif isinstance(selection, str):
        names = [selection]
    else:
        names = list(selection)
    for name in names:
        if name not in registry:
            raise KeyError(f"unknown check {name!r}")
    # one run for every check, dropped when verify_all returns
    run = _Run(caps, max_n)
    return [registry[name](max_n, caps, run) for name in names]


def reports_json(reports: list[VerifyReport]) -> str:
    return json.dumps({
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }, indent=2)
