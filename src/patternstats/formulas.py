"""Closed-form counts for statistic distributions over pattern classes.

Each registry entry evaluates a(n, k) = number of length-n permutations in
the class with statistic value k.  Formula ids follow one convention:
single-pattern classes concatenate statistic and pattern (``PK231``),
two-pattern classes separate the parts (``ASC_213_312``).

Evaluators return 0 for k outside a formula's support.  Each formula also
carries a smallest valid n; querying below it raises
:class:`FormulaDomainError` rather than returning a silently wrong number.
:func:`closed_form_row` is the one builder of a formula's row: the
verification harness, the closed-form method and the OEIS export all read
rows through it.  This module alone says which formula gives a
(statistic, basis) cell: registering a formula records its cell, and
:func:`formula_for` looks the cell up.
Binomials use the convention C(a, b) = 0 for b < 0 or b > a, which
collapses piecewise case lists into single expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

from .perms import Perm, normalize_basis, parse_basis


def binom(a: int, b: int) -> int:
    """C(a, b), zero outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class FormulaDomainError(ValueError):
    """(n, k) lies outside the formula's stated validity range."""


class UnknownFormulaError(KeyError):
    """No formula is registered under the given id."""


@dataclass(frozen=True)
class FormulaSpec:
    id: str
    stat: str
    basis: tuple[Perm, ...]
    fn: Callable[[int, int], int]
    min_n: int


def _pk231(n: int, k: int) -> int:
    c = binom(n - 1, 2 * k)
    if c == 0:
        return 0
    return 2 ** (n - 2 * k - 1) * c * binom(2 * k, k) // (k + 1)


def _narayana(n: int, k: int) -> int:
    return binom(n - 1, k) * binom(n, k) // (k + 1)


def _pascal(n: int, k: int) -> int:
    return binom(n - 1, k)


def _dasc_213_312(n: int, k: int) -> int:
    return n if k == 0 else binom(n - 1, k + 1)


def _pk_213_312(n: int, k: int) -> int:
    if k == 0:
        return 2
    if k == 1:
        return 2 ** (n - 1) - 2
    return 0


def _pow2_at_zero(n: int, k: int) -> int:
    return 2 ** (n - 1) if k == 0 else 0


def _choose_odd(n: int, k: int) -> int:
    return binom(n, 2 * k + 1)


def _asc_123_132(n: int, k: int) -> int:
    return binom(n, 2 * k)


def _des_123_132(n: int, k: int) -> int:
    return binom(n, 2 * (n - k - 1))


def _ddes_123_132(n: int, k: int) -> int:
    return binom(n - 2, k) + 2 * binom(n - 3, k)


def _vl_123_132(n: int, k: int) -> int:
    return 2 * binom(n - 1, 2 * k)


def _asc_132_321(n: int, k: int) -> int:
    if k == n - 1:
        return 1
    if k == n - 2:
        return binom(n, 2)
    return 0


def _des_132_321(n: int, k: int) -> int:
    if k == 0:
        return 1
    if k == 1:
        return binom(n, 2)
    return 0


def _dasc_132_321(n: int, k: int) -> int:
    if k == n - 2:
        return 1
    if k == n - 3:
        return n
    if k == n - 4:
        return binom(n, 2) - n
    return 0


def _ddes_132_321(n: int, k: int) -> int:
    return binom(n, 2) + 1 if k == 0 else 0


def _pk_132_321(n: int, k: int) -> int:
    if k == 0:
        return n
    if k == 1:
        return binom(n - 1, 2)
    return 0


def _vl_132_321(n: int, k: int) -> int:
    if k == 0:
        return 2
    if k == 1:
        return binom(n, 2) - 1
    return 0


FORMULAS: dict[str, FormulaSpec] = {}
# (statistic, basis) -> formula id; ids, not specs, so that an entry of
# FORMULAS replaced later is the one a lookup returns
_FORMULA_FOR: dict[tuple, str] = {}


def _register(fid: str, stat: str, basis: str, fn, min_n: int = 1) -> None:
    spec = FORMULAS[fid] = FormulaSpec(fid, stat, parse_basis(basis), fn, min_n)
    _FORMULA_FOR[(stat, spec.basis)] = fid


_register("PK231", "pk", "231", _pk231)

for _single in ("132", "213", "231", "312"):
    _register(f"ASC{_single}", "asc", _single, _narayana)
    _register(f"DES{_single}", "des", _single, _narayana)

for _pair in ("213,312", "132,213", "213,231"):
    _tag = _pair.replace(",", "_")
    _register(f"ASC_{_tag}", "asc", _pair, _pascal)
    _register(f"DES_{_tag}", "des", _pair, _pascal)

_register("DASC_213_312", "dasc", "213,312", _dasc_213_312)
_register("DDES_213_312", "ddes", "213,312", _dasc_213_312)
# the k = 1 case goes negative at n = 1, where the class has one member
_register("PK_213_312", "pk", "213,312", _pk_213_312, min_n=2)
_register("VL_213_312", "vl", "213,312", _pow2_at_zero)

for _pair in ("132,213", "213,231"):
    _tag = _pair.replace(",", "_")
    _register(f"PK_{_tag}", "pk", _pair, _choose_odd)
    _register(f"VL_{_tag}", "vl", _pair, _choose_odd)

_register("ASC_123_132", "asc", "123,132", _asc_123_132)
_register("DES_123_132", "des", "123,132", _des_123_132)
_register("DASC_123_132", "dasc", "123,132", _pow2_at_zero, min_n=3)
_register("DDES_123_132", "ddes", "123,132", _ddes_123_132, min_n=3)
_register("PK_123_132", "pk", "123,132", _choose_odd)
# 2 C(0, 0) = 2 overcounts the single length-1 permutation
_register("VL_123_132", "vl", "123,132", _vl_123_132, min_n=2)

_register("ASC_132_321", "asc", "132,321", _asc_132_321)
_register("DES_132_321", "des", "132,321", _des_132_321)
# cases collide below n = 3 (k = n-2 and k = n-3 describe too few members)
_register("DASC_132_321", "dasc", "132,321", _dasc_132_321, min_n=3)
_register("DDES_132_321", "ddes", "132,321", _ddes_132_321, min_n=3)
_register("PK_132_321", "pk", "132,321", _pk_132_321)
_register("VL_132_321", "vl", "132,321", _vl_132_321, min_n=2)


def formula(fid: str) -> FormulaSpec:
    try:
        return FORMULAS[fid]
    except KeyError:
        raise UnknownFormulaError(fid) from None


def _stated_at(fid: str, n: int) -> FormulaSpec:
    """The formula ``fid``, with n checked against its smallest valid n."""
    spec = formula(fid)
    if n < spec.min_n:
        raise FormulaDomainError(
            f"{fid} is stated for n >= {spec.min_n}; got n = {n}")
    return spec


def closed_form(fid: str, n: int, k: int) -> int:
    """Evaluate the registered formula at (n, k).

    >>> closed_form("PK231", 4, 1)
    6
    """
    spec = _stated_at(fid, n)
    if k < 0:
        raise FormulaDomainError(f"k must be nonnegative; got {k}")
    return spec.fn(n, k)


def closed_form_row(fid: str, n: int) -> dict[int, int]:
    """All nonzero counts of a formula's length-n row."""
    spec = _stated_at(fid, n)
    return {k: v for k in range(n + 1) if (v := spec.fn(n, k))}


def formula_for(stat: str, basis) -> FormulaSpec | None:
    """The registered formula for a (statistic, basis) pair, if any."""
    fid = _FORMULA_FOR.get((stat, normalize_basis(basis)))
    return None if fid is None else FORMULAS[fid]


def formula_ids() -> tuple[str, ...]:
    return tuple(FORMULAS)
