"""Distribution tables, symmetry identities, and the verification harness.

``distribution`` produces the row a(n, k) for a (statistic, basis) pair by
one of three methods: ``oracle`` (generate the class and count),
``closed_form`` (a registered formula), or ``series`` (a registered
generating function).  Where several methods support a pair they must
agree; ``verify_all`` checks that, every bijection property, every series
identity, and the reverse/complement symmetry identities, and reports the
first counterexample of each failing check.

Oracle rows are cached per (basis, n); a single class enumeration tallies
all six statistics at once.  Generation caps arrive as a
:class:`~patternstats.generate.Caps` value; the cap of the route an
enumeration takes is checked before the cache, so a cached row never
passes a size the caps refuse.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from . import bijections, formulas, generate, series
from .bijections import (
    from_dyck_231,
    from_dyck_321,
    rewrite_312_to_321,
    rewrite_321_to_312,
    to_dyck_231,
    to_dyck_321,
    uud_des_involution,
)
from .dyck import factor_count, interior_uud_count, uud_count
from .generate import Caps
from .perms import (
    Perm,
    avoids_all,
    complement,
    format_basis,
    format_perm,
    ltr_maxima,
    normalize_basis,
    reverse,
)
from .stats import STATS, all_stats, up_down, word_stats

_SINGLE_BASES = ("123", "132", "213", "231", "312", "321")
_PAIR_BASES = ("123,321", "213,312", "132,213", "213,231", "123,132", "132,321")


class UnsupportedMethodError(ValueError):
    """The (statistic, basis, method) combination is not available."""


def _parse_basis(text: str) -> tuple[Perm, ...]:
    return normalize_basis(
        [tuple(int(ch) for ch in part) for part in text.split(",")])


# -- oracle rows --------------------------------------------------------------

_oracle_cache: dict[tuple, dict[str, dict[int, int]]] = {}


def clear_caches() -> None:
    """Forget the cached oracle rows and the filter's containment tables."""
    _oracle_cache.clear()
    generate.clear_tables()


def _tally(members: Iterable[Perm]) -> dict[str, dict[int, int]]:
    # every statistic is a function of the up-down word, so each distinct
    # word is evaluated once; words come in order of first appearance, so
    # every row's keys are inserted in the order a member-by-member tally
    # would insert them
    rows: dict[str, dict[int, int]] = {s: {} for s in STATS}
    for w, count in Counter(map(up_down, members)).items():
        for s, v in word_stats(w).items():
            row = rows[s]
            row[v] = row.get(v, 0) + count
    return rows


def _class_cap(key: tuple, caps: Caps, method: str = "auto") -> tuple[int, str]:
    """The cap of the route gen_class takes, and its name in cap errors."""
    if method == "auto":
        method = "structured" if key in generate.STRUCTURED else "filter"
    if method == "structured":
        return caps.structured, "class"
    return caps.perm, "permutation"


def _members(n: int, key: tuple, caps: Caps, method: str = "auto"):
    cap, _ = _class_cap(key, caps, method)
    return generate.gen_class(n, key, method=method, cap=cap)


def _oracle_rows(basis_key: tuple, n: int, caps: Caps) -> dict[str, dict[int, int]]:
    # checked before the cache, so that a hit cannot pass a size the caps refuse
    cap, what = _class_cap(basis_key, caps)
    generate._check_cap(n, cap, what)
    cached = _oracle_cache.get((basis_key, n))
    if cached is None:
        cached = _oracle_cache[(basis_key, n)] = _tally(
            generate.gen_class(n, basis_key, cap=cap))
    return cached


_SERIES_FOR: dict[tuple[str, tuple], Callable[[int], series.BivariateSeries]] = {}


def _register_series() -> None:
    b321 = _parse_basis("321")
    _SERIES_FOR[("des", b321)] = series.series_des_321
    _SERIES_FOR[("pk", b321)] = series.series_pk_321
    for text in ("132,213", "213,231"):
        key = _parse_basis(text)
        _SERIES_FOR[("dasc", key)] = series.series_ddes_132_213
        _SERIES_FOR[("ddes", key)] = series.series_ddes_132_213


_register_series()


def distribution(stat: str, basis, n: int, method: str = "oracle",
                 caps: Caps = Caps()) -> dict[int, int]:
    """Counts {k: a(n, k)} for the statistic over the class, zeros omitted."""
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}")
    key = normalize_basis(basis)
    if method == "oracle":
        return dict(_oracle_rows(key, n, caps)[stat])
    if method == "closed_form":
        spec = formulas.formula_for(stat, key)
        if spec is None:
            raise UnsupportedMethodError(
                f"no closed form for {stat} over {format_basis(key)}")
        return formulas.closed_form_row(spec.id, n)
    if method == "series":
        fn = _SERIES_FOR.get((stat, key))
        if fn is None:
            raise UnsupportedMethodError(
                f"no series for {stat} over {format_basis(key)}")
        return fn(n).row_counts(n)
    raise UnsupportedMethodError(f"unknown method {method!r}")


def class_size(n: int, basis, method: str = "auto", caps: Caps = Caps()) -> int:
    """Number of length-n permutations avoiding the basis."""
    return sum(1 for _ in _members(n, normalize_basis(basis), caps, method))


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
        rows = [self.row_json(n) for n in sorted(self.rows)]
        if len(rows) == 1:
            return json.dumps(rows[0], indent=2)
        return json.dumps(rows, indent=2)


def dist_table(stat: str, basis, ns: Iterable[int], method: str = "oracle",
               caps: Caps = Caps()) -> DistTable:
    key = normalize_basis(basis)
    rows = {n: distribution(stat, key, n, method=method, caps=caps) for n in ns}
    return DistTable(key, stat, method, rows)


# -- verification -------------------------------------------------------------

@dataclass
class VerifyReport:
    name: str
    max_n: int
    passed: bool
    checked: int
    failure: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_n": self.max_n,
            "passed": self.passed,
            "checked": self.checked,
            "failure": self.failure,
        }


class _Acc:
    """Comparison accumulator remembering the first failure."""

    def __init__(self, name: str, max_n: int):
        self.name = name
        self.max_n = max_n
        self.checked = 0
        self.failure: str | None = None

    def eq(self, got, want, where: str) -> None:
        self.checked += 1
        if self.failure is None and got != want:
            self.failure = f"{where}: got {got!r}, expected {want!r}"

    def ok(self, cond: bool, where: str) -> None:
        self.checked += 1
        if self.failure is None and not cond:
            self.failure = where

    def done(self) -> VerifyReport:
        return VerifyReport(self.name, self.max_n, self.failure is None,
                            self.checked, self.failure)


def _check_card_single(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("CARD_SINGLE_CATALAN", max_n)
    for text in _SINGLE_BASES:
        key = _parse_basis(text)
        for n in range(max_n + 1):
            acc.eq(class_size(n, key, method="filter", caps=caps),
                   formulas.catalan(n), f"|S_{n}({text})| by filter")
    return acc.done()


def _check_card_pairs(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("CARD_PAIRS", max_n)
    for text in ("213,312", "132,213", "213,231", "123,132"):
        key = _parse_basis(text)
        for n in range(1, max_n + 1):
            acc.eq(class_size(n, key, caps=caps), 2 ** (n - 1),
                   f"|S_{n}({text})|")
    key = _parse_basis("132,321")
    for n in range(1, max_n + 1):
        acc.eq(class_size(n, key, caps=caps), formulas.binom(n, 2) + 1,
               f"|S_{n}(132,321)|")
    return acc.done()


def _check_card_123_321(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("CARD_123_321_EMPTY", max_n)
    key = _parse_basis("123,321")
    for n in range(5, max_n + 1):
        acc.eq(class_size(n, key, caps=caps), 0, f"|S_{n}(123,321)|")
    return acc.done()


def _check_structured_filter(max_n: int, caps: Caps) -> VerifyReport:
    bound = min(max_n, 9)
    acc = _Acc("STRUCTURED_MATCHES_FILTER", bound)
    for key in generate.structured_bases():
        for n in range(bound + 1):
            structured = sorted(_members(n, key, caps, "structured"))
            acc.ok(len(set(structured)) == len(structured),
                   f"duplicates from structured {format_basis(key)} at n={n}")
            filtered = sorted(_members(n, key, caps, "filter"))
            acc.eq(structured, filtered,
                   f"structured vs filter for {format_basis(key)} at n={n}")
    return acc.done()


def _check_formula(fid: str, max_n: int, caps: Caps) -> VerifyReport:
    spec = formulas.formula(fid)
    acc = _Acc(f"FORMULA_{fid}", max_n)
    for n in range(spec.min_n, max_n + 1):
        want = {k: v for k in range(n + 1) if (v := spec.fn(n, k))}
        got = _oracle_rows(spec.basis, n, caps)[spec.stat]
        acc.eq(got, want, f"{spec.stat} over {format_basis(spec.basis)} at n={n}")
    return acc.done()


def _check_series_des321(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("SERIES_DES321_ORACLE", max_n)
    a = series.series_des_321(max_n)
    key = _parse_basis("321")
    for n in range(max_n + 1):
        acc.eq(a.row_counts(n), _oracle_rows(key, n, caps)["des"],
               f"descent row at n={n}")
    return acc.done()


def _check_series_pk321(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("SERIES_PK321_ORACLE", max_n)
    c = series.series_pk_321(max_n)
    key = _parse_basis("321")
    for n in range(max_n + 1):
        acc.eq(c.row_counts(n), _oracle_rows(key, n, caps)["pk"],
               f"peak row at n={n}")
    return acc.done()


def _check_series_b(max_n: int, caps: Caps) -> VerifyReport:
    # identity: B = z(1 - q) + sum a(n,k) q^(k+1) z^(n+1) over the
    # peak counts for 231-avoiders, whose n = 0 row is the single empty
    # permutation; the corrections collapse the z^1 row to exactly 1.
    acc = _Acc("SERIES_B_PK231", max_n)
    b = series.series_indec_uud(max_n)
    acc.eq(b.row_counts(0), {}, "empty-word row")
    if max_n >= 1:
        acc.eq(b.row_counts(1), {0: 1}, "row n=1")
    for n in range(1, max_n):
        want = {k + 1: v for k in range(n + 1)
                if (v := formulas.closed_form("PK231", n, k))}
        acc.eq(b.row_counts(n + 1), want, f"row n={n + 1} vs shifted counts")
    bound = min(max_n, 10)
    for n in range(bound + 1):
        got = {}
        for w in generate.gen_indec(n, cap=caps.dyck):
            v = uud_count(w)
            got[v] = got.get(v, 0) + 1
        acc.eq(got, b.row_counts(n), f"indecomposable UUD tally at n={n}")
    return acc.done()


def _check_interior_uud_indec(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("INTERIOR_UUD_INDEC_DES", max_n)
    d = series.series_indec_interior_uud(max_n + 1)
    a = series.series_des_321(max_n)
    key = _parse_basis("321")
    for n in range(max_n + 1):
        tally: dict[int, int] = {}
        for w in generate.gen_indec(n + 1, cap=caps.dyck):
            v = interior_uud_count(w)
            tally[v] = tally.get(v, 0) + 1
        want = _oracle_rows(key, n, caps)["des"]
        acc.eq(tally, want, f"interior UUD over indecomposables at n={n + 1}")
        acc.eq(d.row_counts(n + 1), a.row_counts(n), f"z-shift at n={n}")
    return acc.done()


def _check_uud_des_equidist(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("UUD_DES_EQUIDISTRIBUTION", max_n)
    key = _parse_basis("321")
    for n in range(max_n + 1):
        tally: dict[int, int] = {}
        for w in generate.gen_dyck(n, cap=caps.dyck):
            v = uud_count(w)
            tally[v] = tally.get(v, 0) + 1
        acc.eq(tally, _oracle_rows(key, n, caps)["des"],
               f"UUD tally vs descents at n={n}")
    return acc.done()


def _check_iota(max_n: int, caps: Caps) -> VerifyReport:
    bound = min(max_n, 8)
    acc = _Acc("IOTA_INVOLUTION", bound)
    for n in range(bound + 1):
        for d in generate.gen_dyck(n, cap=caps.dyck):
            s = uud_count(d)
            t = all_stats(from_dyck_321(d))["des"]
            e = uud_des_involution(d)
            acc.eq(uud_des_involution(e), d, f"involution at {d}")
            if s == t:
                acc.eq(e, d, f"fixed point at {d}")
            else:
                got = (uud_count(e), all_stats(from_dyck_321(e))["des"])
                acc.eq(got, (t, s), f"population swap at {d}")
    return acc.done()


def _check_pk_312_321(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("PK_312_EQ_321", max_n)
    k312 = _parse_basis("312")
    k321 = _parse_basis("321")
    for n in range(max_n + 1):
        acc.eq(_oracle_rows(k312, n, caps)["pk"],
               _oracle_rows(k321, n, caps)["pk"], f"peak rows at n={n}")
    return acc.done()


def _check_zeta(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("ZETA_PROPERTIES", max_n)
    key = _parse_basis("312")
    for n in range(max_n + 1):
        for p in _members(n, key, caps):
            q = rewrite_312_to_321(p)
            acc.ok(avoids_all(q, [(3, 2, 1)]), f"image avoids 321 for {p}")
            acc.eq(ltr_maxima(q), ltr_maxima(p), f"maxima preserved for {p}")
            acc.eq(all_stats(q)["pk"], all_stats(p)["pk"],
                   f"peaks preserved for {p}")
            acc.eq(rewrite_321_to_312(q), p, f"round trip for {p}")
    return acc.done()


def _check_phi231(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("PHI231_TRANSPORT", max_n)
    key = _parse_basis("231")
    for n in range(max_n + 1):
        for p in _members(n, key, caps):
            d = to_dyck_231(p)
            acc.eq(from_dyck_231(d), p, f"round trip for {p}")
            acc.eq(factor_count(d, "DUU") if d else 0, all_stats(p)["pk"],
                   f"DUU count for {p}")
    return acc.done()


def _check_psi321(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("PSI321_TRANSPORT", max_n)
    rt_bound = min(max_n, 8)
    for n in range(max_n + 1):
        for d in generate.gen_dyck(n, cap=caps.dyck):
            p = from_dyck_321(d)
            acc.ok(avoids_all(p, [(3, 2, 1)]), f"image avoids 321 for {d}")
            acc.eq(all_stats(p)["pk"], interior_uud_count(d),
                   f"interior UUD count for {d}")
            if n <= rt_bound:
                acc.eq(to_dyck_321(p), d, f"round trip for {d}")
    return acc.done()


def _check_psi_hat(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("PSI_HAT_DES_TRANSPORT", max_n)
    for n in range(max_n + 1):
        for d in generate.gen_dyck(n, cap=caps.dyck):
            p = from_dyck_321(d)
            acc.eq(all_stats(p)["des"], interior_uud_count("U" + d + "D"),
                   f"descents vs wrapped interior UUD for {d}")
    return acc.done()


def _ascent_word_stats(bits: str) -> dict[str, int]:
    # bit i is 1 exactly when position i is an ascent
    return {"asc": bits.count("1"), "des": bits.count("0"),
            "dasc": factor_count(bits, "11"), "ddes": factor_count(bits, "00"),
            "pk": factor_count(bits, "10"), "vl": factor_count(bits, "01")}


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


def _check_encoding(tag: str, max_n: int, caps: Caps) -> VerifyReport:
    basis, word_stats = _ENCODINGS[tag]
    decode = getattr(bijections, f"decode_{tag}")
    encode = getattr(bijections, f"encode_{tag}")
    acc = _Acc(f"ENC_{tag}_TRANSPORT", max_n)
    for n in range(1, max_n + 1):
        for bits in generate.gen_bits(n - 1, cap=caps.bits):
            p = decode(bits)
            acc.ok(avoids_all(p, basis),
                   f"decoded member avoids basis for {bits}")
            acc.eq(encode(p), bits, f"round trip for {bits}")
            st = all_stats(p)
            for stat, want in word_stats(bits).items():
                acc.eq(st[stat], want, f"{_STAT_LABELS[stat]} for {bits}")
    return acc.done()


_FAMILIES = {
    "asc_des": {"r": ("asc", "des"), "c": ("asc", "des"), "rc": ("asc", "asc")},
    "dasc_ddes": {"r": ("dasc", "ddes"), "c": ("dasc", "ddes"),
                  "rc": ("dasc", "dasc")},
    "pk_vl": {"r": ("pk", "pk"), "c": ("pk", "vl"), "rc": ("pk", "vl")},
}


def transform_basis(basis, transform: str) -> tuple[Perm, ...]:
    """Apply reverse/complement pattern-wise to a basis."""
    key = normalize_basis(basis)
    if transform == "r":
        return normalize_basis([reverse(p) for p in key])
    if transform == "c":
        return normalize_basis([complement(p) for p in key])
    if transform == "rc":
        return normalize_basis([complement(reverse(p)) for p in key])
    raise ValueError(f"unknown transform {transform!r}")


def symmetry_check(family: str, basis, transform: str, max_n: int,
                   caps: Caps = Caps()) -> VerifyReport:
    """Compare one symmetry identity's two oracle tables up to max_n."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    left_stat, right_stat = _FAMILIES[family][transform]
    key = normalize_basis(basis)
    image = transform_basis(key, transform)
    name = f"SYMMETRY_{family.upper()}_{format_basis(key)}_{transform}"
    acc = _Acc(name, max_n)
    for n in range(max_n + 1):
        acc.eq(_oracle_rows(key, n, caps)[left_stat],
               _oracle_rows(image, n, caps)[right_stat],
               f"{left_stat}({format_basis(key)}) vs "
               f"{right_stat}({format_basis(image)}) at n={n}")
    return acc.done()


def _check_symmetry_family(family: str, max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc(f"SYMMETRY_{family.upper()}", max_n)
    for text in _SINGLE_BASES + _PAIR_BASES:
        for transform in ("r", "c", "rc"):
            sub = symmetry_check(family, _parse_basis(text), transform,
                                 max_n, caps)
            acc.checked += sub.checked
            if acc.failure is None and not sub.passed:
                acc.failure = sub.failure
    return acc.done()


def _check_132_213_eq_213_231(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("CLASS_132_213_EQ_213_231", max_n)
    a = _parse_basis("132,213")
    b = _parse_basis("213,231")
    for stat in STATS:
        for n in range(max_n + 1):
            acc.eq(_oracle_rows(a, n, caps)[stat],
                   _oracle_rows(b, n, caps)[stat],
                   f"{stat} rows at n={n}")
    return acc.done()


def _check_series_ddes_132_213(max_n: int, caps: Caps) -> VerifyReport:
    acc = _Acc("SERIES_DDES_132_213_ORACLE", max_n)
    f = series.series_ddes_132_213(max_n)
    key = _parse_basis("132,213")
    for n in range(max_n + 1):
        rows = _oracle_rows(key, n, caps)
        acc.eq(f.row_counts(n), rows["ddes"], f"double-descent row at n={n}")
        acc.eq(f.row_counts(n), rows["dasc"], f"double-ascent row at n={n}")
    return acc.done()


def checks() -> dict[str, Callable[..., VerifyReport]]:
    """All registered verification checks, name -> fn(max_n, caps)."""
    out: dict[str, Callable[..., VerifyReport]] = {
        "CARD_SINGLE_CATALAN": _check_card_single,
        "CARD_PAIRS": _check_card_pairs,
        "CARD_123_321_EMPTY": _check_card_123_321,
        "STRUCTURED_MATCHES_FILTER": _check_structured_filter,
    }
    for fid in formulas.formula_ids():
        out[f"FORMULA_{fid}"] = (
            lambda max_n, caps, fid=fid: _check_formula(fid, max_n, caps))
    out.update({
        "SERIES_DES321_ORACLE": _check_series_des321,
        "SERIES_PK321_ORACLE": _check_series_pk321,
        "SERIES_B_PK231": _check_series_b,
        "SERIES_DDES_132_213_ORACLE": _check_series_ddes_132_213,
        "UUD_DES_EQUIDISTRIBUTION": _check_uud_des_equidist,
        "INTERIOR_UUD_INDEC_DES": _check_interior_uud_indec,
        "IOTA_INVOLUTION": _check_iota,
        "PK_312_EQ_321": _check_pk_312_321,
        "ZETA_PROPERTIES": _check_zeta,
        "PHI231_TRANSPORT": _check_phi231,
        "PSI321_TRANSPORT": _check_psi321,
        "PSI_HAT_DES_TRANSPORT": _check_psi_hat,
    })
    for tag in _ENCODINGS:
        out[f"ENC_{tag}_TRANSPORT"] = (
            lambda max_n, caps, tag=tag: _check_encoding(tag, max_n, caps))
    for family in _FAMILIES:
        out[f"SYMMETRY_{family.upper()}"] = (
            lambda max_n, caps, family=family: _check_symmetry_family(
                family, max_n, caps))
    out["CLASS_132_213_EQ_213_231"] = _check_132_213_eq_213_231
    return out


def verify_all(max_n: int, selection=None,
               caps: Caps = Caps()) -> list[VerifyReport]:
    """Run all (or the selected) checks and collect their reports."""
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
    return [registry[name](max_n, caps) for name in names]


def reports_json(reports: list[VerifyReport]) -> str:
    return json.dumps({
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }, indent=2)
