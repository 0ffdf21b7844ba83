"""Exact truncated bivariate power series in q and z.

Coefficients are Python integers (exact, unbounded).  A series is stored
as a tuple of rows, one per power of z up to the truncation degree; row n
lists the coefficients of q^0, q^1, ... with trailing zeros trimmed.
Operations never consult terms beyond the truncation degree.

One solver expands every named series.  An equation
G = P0 + P1 G + P2 G^2 is given as the rows (P0, P1, P2), each in the row
format above, with P1 and P2 free of z^0.  Row n of G then needs only
rows 0..n-1 of G and of G^2, and row m of G^2 only rows 0..m of G, so
:func:`_solve` adds one row of G^2 and then one row of G per step.  Each
row is computed once, so a solve to degree N takes O(N^2) products of
rows.  With P2 = 0 the equation is linear, and the solve expands the
rational series P0 / (1 - P1).  Two equations are given:

* ``_DES_321``: G = 1 + z(1 - z + qz) G^2, descents over 321-avoiders.
* ``_DDES_132_213``: F = 1 - qz + (z + qz + z^2 - qz^2) F, that is
  F = (1 - qz) / (1 - z - z^2 - qz + qz^2), double descents over
  {132,213}-avoiders.

Five named series are read off these two solves:

* ``series_des_321`` — G: descent counts over 321-avoiders.
* ``series_pk_321`` — 1 + z G^2: peak counts over 321-avoiders, read off
  the rows of G^2 built by the same solve.
* ``series_indec_uud`` — UUD counts over indecomposable Dyck words,
  (G - 1) / G.  Since G - 1 = z(1 - z + qz) G^2, this equals
  z(1 - z + qz) G, so it needs no division.
* ``series_indec_interior_uud`` — interior UUD counts over indecomposable
  Dyck words, z G.
* ``series_ddes_132_213`` — F: double-descent counts over
  {132,213}-avoiders.

Every ``series_*`` function raises ``ValueError`` for a negative degree.

:data:`SERIES` is the one table of the named series: it gives each CLI
name its function and the (statistic, basis) cells the function counts.
The ``series`` command and ``distribution(..., method="series")`` both
read it, and look the function up by name when called.
"""

from __future__ import annotations

Row = tuple[int, ...]

# CLI name -> (function name, the (statistic, basis text) cells it counts);
# B and D count Dyck words, not a cell of a pattern class
SERIES = {
    "des321": ("series_des_321", (("des", "321"),)),
    "pk321": ("series_pk_321", (("pk", "321"),)),
    "B": ("series_indec_uud", ()),
    "D": ("series_indec_interior_uud", ()),
    "ddes132213": ("series_ddes_132_213",
                   tuple((stat, basis) for stat in ("dasc", "ddes")
                         for basis in ("132,213", "213,231"))),
}


def _trim(row) -> Row:
    row = tuple(row)
    end = len(row)
    while end and row[end - 1] == 0:
        end -= 1
    return row[:end]


def _combine(*terms) -> Row:
    """Sum of factor * q^shift * row over the (factor, shift, row) terms."""
    out = [0] * max((shift + len(row) for _, shift, row in terms), default=0)
    for factor, shift, row in terms:
        for k, c in enumerate(row, shift):
            out[k] += factor * c
    return _trim(out)


class BivariateSeries:
    """Truncated series sum_{n <= degree} row_n(q) z^n with integer rows."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(_trim(r) for r in rows)

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    def coeff(self, n: int, k: int) -> int:
        """Coefficient of z^n q^k; exact, never a truncated guess."""
        if not 0 <= n <= self.degree:
            raise IndexError(f"z-degree {n} outside truncation 0..{self.degree}")
        row = self.rows[n]
        return row[k] if 0 <= k < len(row) else 0

    def row_counts(self, n: int) -> dict[int, int]:
        """Row n as a sparse map k -> coefficient (zeros omitted)."""
        if not 0 <= n <= self.degree:
            raise IndexError(f"z-degree {n} outside truncation 0..{self.degree}")
        return {k: c for k, c in enumerate(self.rows[n]) if c}

    def row_sum(self, n: int) -> int:
        return sum(self.rows[n])

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariateSeries) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"BivariateSeries(degree={self.degree})"


def _check_max_n(max_n: int) -> None:
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative: {max_n}")


def _square_row(g: list[Row], m: int) -> Row:
    """Row m of G^2 from rows G_0..G_m, by the symmetric half of the
    convolution."""
    terms = [(2 * x, i, g[m - a]) for a in range((m + 1) // 2)
             for i, x in enumerate(g[a]) if x]
    if m % 2 == 0:
        terms += [(x, i, g[m // 2]) for i, x in enumerate(g[m // 2]) if x]
    return _combine(*terms)


# (P0, P1, P2) of G = P0 + P1 G + P2 G^2, each as rows in z over q
_DES_321 = (((1,),), (), ((), (1,), (-1, 1)))
_DDES_132_213 = (((1,), (0, -1)), ((), (1, 1), (1, -1)), ())


def _terms(p) -> list[tuple[int, int, int]]:
    """The nonzero (z power, q power, coefficient) terms of rows p."""
    return [(j, i, c) for j, row in enumerate(p) for i, c in enumerate(row)
            if c]


def _times(terms, x: list[Row], n: int) -> list:
    """The (factor, shift, row) terms of row n of P X, for P free of z^0
    given by its :func:`_terms`, from rows X_0..X_{n-1}."""
    return [(c, i, x[n - j]) for j, i, c in terms if j <= n]


def _solve(equation, max_n: int) -> tuple[list[Row], list[Row]]:
    """Rows of G = P0 + P1 G + P2 G^2 to degree max_n, and of S = G^2 to
    degree max_n - 1 (none when P2 = 0).

    Row n of G needs only G_0..G_{n-1} and S_0..S_{n-1}, and S_m only
    G_0..G_m, so each step adds one row of S and then one row of G.
    """
    _check_max_n(max_n)
    p0 = equation[0] + ((),) * (max_n + 1)
    p1, p2 = map(_terms, equation[1:])
    g, s = [], []
    for n in range(max_n + 1):
        if p2 and n:
            s.append(_square_row(g, n - 1))
        g.append(_combine((1, 0, p0[n]), *_times(p1, g, n),
                          *_times(p2, s, n)))
    return g, s


def expand(name: str, max_n: int) -> BivariateSeries:
    """The series named ``name`` in :data:`SERIES`, to degree max_n.

    The function is looked up when called, so a wrapped one is the one run.
    """
    return globals()[SERIES[name][0]](max_n)


def series_des_321(max_n: int) -> BivariateSeries:
    """Coefficient of z^n q^k counts 321-avoiders of length n with k descents.

    Equivalently, Dyck words of semilength n with k UUD factors.
    """
    return BivariateSeries(_solve(_DES_321, max_n)[0])


def series_pk_321(max_n: int) -> BivariateSeries:
    """Coefficient of z^n q^k counts 321-avoiders of length n with k peaks.

    Equivalently, Dyck words of semilength n with k interior UUD factors.
    """
    return BivariateSeries([(1,)] + _solve(_DES_321, max_n)[1])


def series_indec_uud(max_n: int) -> BivariateSeries:
    """Coefficient of z^n q^k counts indecomposable words with k UUD factors."""
    g, w = _solve(_DES_321, max_n)[0], _terms(_DES_321[2])
    return BivariateSeries(_combine(*_times(w, g, n)) for n in range(len(g)))


def series_indec_interior_uud(max_n: int) -> BivariateSeries:
    """Coefficient of z^n q^k counts indecomposable words with k interior UUDs.

    This is the z-shift of :func:`series_des_321`.
    """
    return BivariateSeries([()] + _solve(_DES_321, max_n)[0][:max_n])


def series_ddes_132_213(max_n: int) -> BivariateSeries:
    """Coefficient of z^n q^k counts {132,213}-avoiders with k double descents.

    This is the solution F of F = 1 - qz + (z + qz + z^2 - qz^2) F, that
    is the rational series (1 - qz) / (1 - z - z^2 - qz + qz^2).
    """
    return BivariateSeries(_solve(_DDES_132_213, max_n)[0])
