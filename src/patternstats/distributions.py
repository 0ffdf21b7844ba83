"""Distribution tables, symmetry identities, and the verification harness.

``distribution`` produces the row a(n, k) for a (statistic, basis) pair by
one of three methods: ``oracle`` (generate the class and count),
``closed_form`` (a registered formula), or ``series`` (a registered
generating function).  Where several methods support a pair they must
agree; ``verify_all`` checks that, every bijection property, every series
identity, and the reverse/complement symmetry identities, and reports the
first counterexample of each failing check.

Oracle rows are cached per (basis, n); a single class enumeration tallies
all six statistics at once.  With ``workers > 1`` the member stream is
chunked across a thread pool and merged in submission order, so results
are identical for every worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from . import formulas, generate, series
from .bijections import (
    decode_123_132,
    decode_132_213,
    decode_213_231,
    encode_123_132,
    encode_132_213,
    encode_213_231,
    from_dyck_231,
    from_dyck_321,
    rewrite_312_to_321,
    rewrite_321_to_312,
    to_dyck_231,
    to_dyck_321,
    uud_des_involution,
)
from .dyck import factor_count, interior_uud_count, uud_count
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
from .stats import STATS, all_stats

_CHUNK = 4096

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
    _oracle_cache.clear()


def _tally(members: Iterable[Perm]) -> dict[str, dict[int, int]]:
    rows: dict[str, dict[int, int]] = {s: {} for s in STATS}
    for p in members:
        for s, v in all_stats(p).items():
            row = rows[s]
            row[v] = row.get(v, 0) + 1
    return rows


def _chunks(stream: Iterator[Perm], size: int) -> Iterator[list[Perm]]:
    while True:
        block = list(islice(stream, size))
        if not block:
            return
        yield block


def _merge(into: dict[str, dict[int, int]], part: dict[str, dict[int, int]]) -> None:
    for s, row in part.items():
        dest = into[s]
        for k, c in row.items():
            dest[k] = dest.get(k, 0) + c


def _oracle_rows(basis_key: tuple, n: int, workers: int = 1) -> dict[str, dict[int, int]]:
    # the cap of the route gen_class takes, checked before the cache so that
    # a hit cannot pass a size the configured cap refuses
    if basis_key in generate.STRUCTURED:
        generate._check_cap(n, generate.STRUCTURED_CAP, "class")
    else:
        generate._check_cap(n, generate.GEN_ALL_CAP, "permutation")
    cached = _oracle_cache.get((basis_key, n))
    if cached is not None:
        return cached
    stream = generate.gen_class(n, basis_key, method="auto")
    if workers <= 1:
        rows = _tally(stream)
    else:
        rows = {s: {} for s in STATS}
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_tally, block)
                       for block in _chunks(stream, _CHUNK)]
            for fut in futures:
                _merge(rows, fut.result())
    _oracle_cache[(basis_key, n)] = rows
    return rows


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
                 workers: int = 1) -> dict[int, int]:
    """Counts {k: a(n, k)} for the statistic over the class, zeros omitted."""
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}")
    key = normalize_basis(basis)
    if method == "oracle":
        return dict(_oracle_rows(key, n, workers)[stat])
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


def class_size(n: int, basis, method: str = "auto") -> int:
    """Number of length-n permutations avoiding the basis."""
    return sum(1 for _ in generate.gen_class(n, basis, method=method))


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
               workers: int = 1) -> DistTable:
    key = normalize_basis(basis)
    rows = {n: distribution(stat, key, n, method=method, workers=workers)
            for n in ns}
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


def _check_card_single(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("CARD_SINGLE_CATALAN", max_n)
    for text in _SINGLE_BASES:
        key = _parse_basis(text)
        for n in range(max_n + 1):
            acc.eq(class_size(n, key, method="filter"), formulas.catalan(n),
                   f"|S_{n}({text})| by filter")
    return acc.done()


def _check_card_pairs(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("CARD_PAIRS", max_n)
    for text in ("213,312", "132,213", "213,231", "123,132"):
        key = _parse_basis(text)
        for n in range(1, max_n + 1):
            acc.eq(class_size(n, key), 2 ** (n - 1), f"|S_{n}({text})|")
    key = _parse_basis("132,321")
    for n in range(1, max_n + 1):
        acc.eq(class_size(n, key), formulas.binom(n, 2) + 1,
               f"|S_{n}(132,321)|")
    return acc.done()


def _check_card_123_321(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("CARD_123_321_EMPTY", max_n)
    key = _parse_basis("123,321")
    for n in range(5, max_n + 1):
        acc.eq(class_size(n, key), 0, f"|S_{n}(123,321)|")
    return acc.done()


def _check_structured_filter(max_n: int, workers: int = 1) -> VerifyReport:
    bound = min(max_n, 9)
    acc = _Acc("STRUCTURED_MATCHES_FILTER", bound)
    for key in generate.structured_bases():
        for n in range(bound + 1):
            structured = sorted(generate.gen_class(n, key, method="structured"))
            acc.ok(len(set(structured)) == len(structured),
                   f"duplicates from structured {format_basis(key)} at n={n}")
            filtered = sorted(generate.gen_class(n, key, method="filter"))
            acc.eq(structured, filtered,
                   f"structured vs filter for {format_basis(key)} at n={n}")
    return acc.done()


def _check_formula(fid: str, max_n: int, workers: int = 1,
                   fn_override=None) -> VerifyReport:
    spec = formulas.formula(fid)
    acc = _Acc(f"FORMULA_{fid}", max_n)
    fn = fn_override or spec.fn
    for n in range(spec.min_n, max_n + 1):
        want = {k: v for k in range(n + 1) if (v := fn(n, k))}
        got = _oracle_rows(spec.basis, n, workers)[spec.stat]
        acc.eq(got, want, f"{spec.stat} over {format_basis(spec.basis)} at n={n}")
    return acc.done()


def _check_series_des321(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("SERIES_DES321_ORACLE", max_n)
    a = series.series_des_321(max_n)
    key = _parse_basis("321")
    for n in range(max_n + 1):
        acc.eq(a.row_counts(n), _oracle_rows(key, n, workers)["des"],
               f"descent row at n={n}")
    return acc.done()


def _check_series_pk321(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("SERIES_PK321_ORACLE", max_n)
    c = series.series_pk_321(max_n)
    key = _parse_basis("321")
    for n in range(max_n + 1):
        acc.eq(c.row_counts(n), _oracle_rows(key, n, workers)["pk"],
               f"peak row at n={n}")
    return acc.done()


def _check_series_b(max_n: int, workers: int = 1) -> VerifyReport:
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
        for w in generate.gen_indec(n):
            v = uud_count(w)
            got[v] = got.get(v, 0) + 1
        acc.eq(got, b.row_counts(n), f"indecomposable UUD tally at n={n}")
    return acc.done()


def _check_interior_uud_indec(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("INTERIOR_UUD_INDEC_DES", max_n)
    d = series.series_indec_interior_uud(max_n + 1)
    a = series.series_des_321(max_n)
    key = _parse_basis("321")
    for n in range(max_n + 1):
        tally: dict[int, int] = {}
        for w in generate.gen_indec(n + 1):
            v = interior_uud_count(w)
            tally[v] = tally.get(v, 0) + 1
        want = _oracle_rows(key, n, workers)["des"]
        acc.eq(tally, want, f"interior UUD over indecomposables at n={n + 1}")
        acc.eq(d.row_counts(n + 1), a.row_counts(n), f"z-shift at n={n}")
    return acc.done()


def _check_uud_des_equidist(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("UUD_DES_EQUIDISTRIBUTION", max_n)
    key = _parse_basis("321")
    for n in range(max_n + 1):
        tally: dict[int, int] = {}
        for w in generate.gen_dyck(n):
            v = uud_count(w)
            tally[v] = tally.get(v, 0) + 1
        acc.eq(tally, _oracle_rows(key, n, workers)["des"],
               f"UUD tally vs descents at n={n}")
    return acc.done()


def _check_iota(max_n: int, workers: int = 1) -> VerifyReport:
    bound = min(max_n, 8)
    acc = _Acc("IOTA_INVOLUTION", bound)
    for n in range(bound + 1):
        for d in generate.gen_dyck(n):
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


def _check_pk_312_321(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("PK_312_EQ_321", max_n)
    k312 = _parse_basis("312")
    k321 = _parse_basis("321")
    for n in range(max_n + 1):
        acc.eq(_oracle_rows(k312, n, workers)["pk"],
               _oracle_rows(k321, n, workers)["pk"], f"peak rows at n={n}")
    return acc.done()


def _check_zeta(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("ZETA_PROPERTIES", max_n)
    key = _parse_basis("312")
    for n in range(max_n + 1):
        for p in generate.gen_class(n, key):
            q = rewrite_312_to_321(p)
            acc.ok(avoids_all(q, [(3, 2, 1)]), f"image avoids 321 for {p}")
            acc.eq(ltr_maxima(q), ltr_maxima(p), f"maxima preserved for {p}")
            acc.eq(all_stats(q)["pk"], all_stats(p)["pk"],
                   f"peaks preserved for {p}")
            acc.eq(rewrite_321_to_312(q), p, f"round trip for {p}")
    return acc.done()


def _check_phi231(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("PHI231_TRANSPORT", max_n)
    key = _parse_basis("231")
    for n in range(max_n + 1):
        for p in generate.gen_class(n, key):
            d = to_dyck_231(p)
            acc.eq(from_dyck_231(d), p, f"round trip for {p}")
            acc.eq(factor_count(d, "DUU") if d else 0, all_stats(p)["pk"],
                   f"DUU count for {p}")
    return acc.done()


def _check_psi321(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("PSI321_TRANSPORT", max_n)
    rt_bound = min(max_n, 8)
    for n in range(max_n + 1):
        for d in generate.gen_dyck(n):
            p = from_dyck_321(d)
            acc.ok(avoids_all(p, [(3, 2, 1)]), f"image avoids 321 for {d}")
            acc.eq(all_stats(p)["pk"], interior_uud_count(d),
                   f"interior UUD count for {d}")
            if n <= rt_bound:
                acc.eq(to_dyck_321(p), d, f"round trip for {d}")
    return acc.done()


def _check_psi_hat(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("PSI_HAT_DES_TRANSPORT", max_n)
    for n in range(max_n + 1):
        for d in generate.gen_dyck(n):
            p = from_dyck_321(d)
            acc.eq(all_stats(p)["des"], interior_uud_count("U" + d + "D"),
                   f"descents vs wrapped interior UUD for {d}")
    return acc.done()


def _check_enc_132_213(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("ENC_132_213_TRANSPORT", max_n)
    for n in range(1, max_n + 1):
        for bits in generate.gen_bits(n - 1):
            p = decode_132_213(bits)
            acc.ok(avoids_all(p, [(1, 3, 2), (2, 1, 3)]),
                   f"decoded member avoids basis for {bits}")
            acc.eq(encode_132_213(p), bits, f"round trip for {bits}")
            st = all_stats(p)
            acc.eq(st["asc"], bits.count("1"), f"ascents for {bits}")
            acc.eq(st["des"], bits.count("0"), f"descents for {bits}")
            acc.eq(st["dasc"], factor_count(bits, "11"), f"dasc for {bits}")
            acc.eq(st["ddes"], factor_count(bits, "00"), f"ddes for {bits}")
            acc.eq(st["pk"], factor_count(bits, "10"), f"peaks for {bits}")
            acc.eq(st["vl"], factor_count(bits, "01"), f"valleys for {bits}")
    return acc.done()


def _check_enc_213_231(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("ENC_213_231_TRANSPORT", max_n)
    for n in range(1, max_n + 1):
        for bits in generate.gen_bits(n - 1):
            p = decode_213_231(bits)
            acc.ok(avoids_all(p, [(2, 1, 3), (2, 3, 1)]),
                   f"decoded member avoids basis for {bits}")
            acc.eq(encode_213_231(p), bits, f"round trip for {bits}")
            st = all_stats(p)
            acc.eq(st["asc"], bits.count("1"), f"ascents for {bits}")
            acc.eq(st["des"], bits.count("0"), f"descents for {bits}")
            acc.eq(st["dasc"], factor_count(bits, "11"), f"dasc for {bits}")
            acc.eq(st["ddes"], factor_count(bits, "00"), f"ddes for {bits}")
            acc.eq(st["pk"], factor_count(bits, "10"), f"peaks for {bits}")
            acc.eq(st["vl"], factor_count(bits, "01"), f"valleys for {bits}")
    return acc.done()


def _check_enc_123_132(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("ENC_123_132_TRANSPORT", max_n)
    for n in range(1, max_n + 1):
        for bits in generate.gen_bits(n - 1):
            p = decode_123_132(bits)
            acc.ok(avoids_all(p, [(1, 2, 3), (1, 3, 2)]),
                   f"decoded member avoids basis for {bits}")
            acc.eq(encode_123_132(p), bits, f"round trip for {bits}")
            st = all_stats(p)
            initial0 = 1 if bits.startswith("0") else 0
            initial00 = 1 if bits.startswith("00") else 0
            n10 = factor_count(bits, "10")
            acc.eq(st["asc"], initial0 + n10, f"ascents for {bits}")
            acc.eq(st["des"], n - 1 - initial0 - n10, f"descents for {bits}")
            acc.eq(st["dasc"], 0, f"dasc for {bits}")
            pairs = factor_count(bits, "00") + factor_count(bits, "11")
            acc.eq(st["ddes"], pairs - initial00, f"ddes for {bits}")
            acc.eq(st["pk"], factor_count(bits, "01"), f"peaks for {bits}")
            acc.eq(st["vl"], n10 + initial00, f"valleys for {bits}")
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
                   workers: int = 1) -> VerifyReport:
    """Compare one symmetry identity's two oracle tables up to max_n."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    left_stat, right_stat = _FAMILIES[family][transform]
    key = normalize_basis(basis)
    image = transform_basis(key, transform)
    name = f"SYMMETRY_{family.upper()}_{format_basis(key)}_{transform}"
    acc = _Acc(name, max_n)
    for n in range(max_n + 1):
        acc.eq(_oracle_rows(key, n, workers)[left_stat],
               _oracle_rows(image, n, workers)[right_stat],
               f"{left_stat}({format_basis(key)}) vs "
               f"{right_stat}({format_basis(image)}) at n={n}")
    return acc.done()


def _check_symmetry_family(family: str, max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc(f"SYMMETRY_{family.upper()}", max_n)
    for text in _SINGLE_BASES + _PAIR_BASES:
        for transform in ("r", "c", "rc"):
            sub = symmetry_check(family, _parse_basis(text), transform,
                                 max_n, workers)
            acc.checked += sub.checked
            if acc.failure is None and not sub.passed:
                acc.failure = sub.failure
    return acc.done()


def _check_132_213_eq_213_231(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("CLASS_132_213_EQ_213_231", max_n)
    a = _parse_basis("132,213")
    b = _parse_basis("213,231")
    for stat in STATS:
        for n in range(max_n + 1):
            acc.eq(_oracle_rows(a, n, workers)[stat],
                   _oracle_rows(b, n, workers)[stat],
                   f"{stat} rows at n={n}")
    return acc.done()


def _check_series_ddes_132_213(max_n: int, workers: int = 1) -> VerifyReport:
    acc = _Acc("SERIES_DDES_132_213_ORACLE", max_n)
    f = series.series_ddes_132_213(max_n)
    key = _parse_basis("132,213")
    for n in range(max_n + 1):
        rows = _oracle_rows(key, n, workers)
        acc.eq(f.row_counts(n), rows["ddes"], f"double-descent row at n={n}")
        acc.eq(f.row_counts(n), rows["dasc"], f"double-ascent row at n={n}")
    return acc.done()


def checks() -> dict[str, Callable[..., VerifyReport]]:
    """All registered verification checks, name -> fn(max_n, workers)."""
    out: dict[str, Callable[..., VerifyReport]] = {
        "CARD_SINGLE_CATALAN": _check_card_single,
        "CARD_PAIRS": _check_card_pairs,
        "CARD_123_321_EMPTY": _check_card_123_321,
        "STRUCTURED_MATCHES_FILTER": _check_structured_filter,
    }
    for fid in formulas.formula_ids():
        out[f"FORMULA_{fid}"] = (
            lambda max_n, workers=1, fid=fid: _check_formula(fid, max_n, workers))
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
        "ENC_132_213_TRANSPORT": _check_enc_132_213,
        "ENC_213_231_TRANSPORT": _check_enc_213_231,
        "ENC_123_132_TRANSPORT": _check_enc_123_132,
        "SYMMETRY_ASC_DES": lambda max_n, workers=1: _check_symmetry_family(
            "asc_des", max_n, workers),
        "SYMMETRY_DASC_DDES": lambda max_n, workers=1: _check_symmetry_family(
            "dasc_ddes", max_n, workers),
        "SYMMETRY_PK_VL": lambda max_n, workers=1: _check_symmetry_family(
            "pk_vl", max_n, workers),
        "CLASS_132_213_EQ_213_231": _check_132_213_eq_213_231,
    })
    return out


def verify_all(max_n: int, selection=None, workers: int = 1) -> list[VerifyReport]:
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
    return [registry[name](max_n, workers=workers) for name in names]


def reports_json(reports: list[VerifyReport]) -> str:
    return json.dumps({
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }, indent=2)
