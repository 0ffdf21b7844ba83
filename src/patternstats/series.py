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
row is computed once.  A row of G adds and subtracts whole rows, one sum
per q power of P1 and P2.  A row m of G^2 is read off one integer: each
row of G is packed once as its value at q = 2^w (Kronecker substitution),
and row m takes ceil((m + 1) / 2) products of those integers.  With P2 = 0
the equation is linear, and the solve expands the rational series
P0 / (1 - P1).  Two equations are given:

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
The ``series`` command and the ``series`` route of
``distributions.METHODS`` read it, and look the function up by name when
called.  The route serves ``distribution(..., method="series")`` and
every verify check that reads a series; ``SERIES_B_PK231`` and
``INTERIOR_UUD_INDEC_DES`` ask it for B and D by name.
"""

from __future__ import annotations

from operator import add, mul, neg, sub

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


def _add(x, y) -> list:
    """x + y for rows of any lengths."""
    return [*map(add, x, y), *x[len(y):], *y[len(x):]]


def _sub(x, y) -> list:
    """x - y for rows of any lengths."""
    return [*map(sub, x, y), *x[len(y):], *map(neg, y[len(x):])]


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


# (P0, P1, P2) of G = P0 + P1 G + P2 G^2, each as rows in z over q
_DES_321 = (((1,),), (), ((), (1,), (-1, 1)))
_DDES_132_213 = (((1,), (0, -1)), ((), (1, 1), (1, -1)), ())


def _by_q_power(*products) -> dict:
    """The terms c q^i z^j of the P in products (P, rows of X), grouped by
    q power: i -> [(c, j, rows of X), ...]."""
    groups = {}
    for p, x in products:
        for j, row in enumerate(p):
            for i, c in enumerate(row):
                if c:
                    groups.setdefault(i, []).append((c, j, x))
    return groups


def _linear_row(groups, n: int) -> list:
    """Row n of the sum of the products P X grouped by :func:`_by_q_power`,
    for P free of z^0, from rows X_0..X_{n-1}.

    The row is sum_i q^i (sum_j c_ij X_{n-j}).  Each inner sum adds or
    subtracts whole rows, and multiplies a row only when |c_ij| != 1.
    """
    out = []
    for i, terms in groups.items():
        acc = ()
        for c, j, x in terms:
            if j <= n:
                if c == 1:
                    acc = _add(acc, x[n - j])
                elif c == -1:
                    acc = _sub(acc, x[n - j])
                else:
                    acc = _add(acc, [c * v for v in x[n - j]])
        if acc:
            out += [0] * (i - len(out))
            out[i:] = _add(out[i:], acc)
    return out


def _width(equation, max_n: int) -> int:
    """Bits w, a multiple of 8, with |coefficient| < 2^(w-1) throughout
    rows 0..max_n - 1 of S = G^2.

    The bound comes from the majorant solve: the same recurrence at q = 1
    with every coefficient of P0, P1, P2 replaced by its absolute value.
    By induction its row n, M_n, is at least the sum of the |coefficients|
    of G_n, so row m of M^2 is at least that of S_m.
    """
    a0, a1, a2 = ([sum(map(abs, row)) for row in p] for p in equation)
    a0 += [0] * max_n
    m, sq = [], []
    for n in range(max_n):
        m.append(a0[n] + sum(map(mul, a1[1:], reversed(m)))
                 + sum(map(mul, a2[1:], reversed(sq))))
        sq.append(sum(map(mul, m, reversed(m))))
    return 8 * (max(sq, default=0).bit_length() // 8 + 1)


def _pack(row, w: int) -> int:
    """The value of a row at q = 2^w."""
    v = 0
    for c in reversed(row):
        v = (v << w) + c
    return v


def _unpack(v: int, w: int) -> Row:
    """The row, each coefficient of absolute value below 2^(w-1), whose
    value at q = 2^w is v.

    With the top coefficient at q^d, the fields below it sum to less than
    2^(wd - 1) in absolute value, so |v| has wd to w(d + 1) bits, and
    |v|.bit_length() // w + 1 fields hold the row.  Adding 2^(w-1) to each
    field makes it nonnegative and below 2^w, so the w/8-byte fields of the
    sum are read off its bytes.
    """
    k, half = w // 8, 1 << (w - 1)
    length = abs(v).bit_length() // w + 1
    offset = int.from_bytes(half.to_bytes(k, "little") * length, "little")
    data = (v + offset).to_bytes(k * length, "little")
    return _trim([int.from_bytes(data[i:i + k], "little") - half
                  for i in range(0, k * length, k)])


def _square(packed: list[int], m: int, w: int) -> Row:
    """Row m of G^2 from the values of rows G_0..G_m at q = 2^w: one
    product per pair of rows, by the symmetric half of the convolution."""
    h = (m + 1) // 2
    v = 2 * sum(map(mul, packed[:h], packed[m:m - h:-1]))
    if m % 2 == 0:
        v += packed[m // 2] ** 2
    return _unpack(v, w)


def _solve(equation, max_n: int) -> tuple[list[Row], list[Row]]:
    """Rows of G = P0 + P1 G + P2 G^2 to degree max_n, and of S = G^2 to
    degree max_n - 1 (none when P2 = 0).

    Row n of G needs only G_0..G_{n-1} and S_0..S_{n-1}, and S_m only
    G_0..G_m, so each step adds one row of S and then one row of G.

    Row n of G is P0_n plus row n of P1 G + P2 S, built by
    :func:`_linear_row` from the terms of P1 and P2 grouped by q power once
    per solve.  Row m of S is read off one integer, its value at q = 2^w:
    each row of G is packed once as its value at q = 2^w, and S_m takes
    ceil((m + 1) / 2) products of those integers.  The coefficients are
    signed, and each lies in a w-bit field of that integer once 2^(w-1) is
    added to it.  That holds because every |coefficient| of S_m is below
    2^(w-1): :func:`_width` takes w from the majorant solve, whose row m
    bounds the sum of the |coefficients| of S_m.
    """
    _check_max_n(max_n)
    p0 = equation[0] + ((),) * (max_n + 1)
    g, s, packed = [], [], []
    groups = _by_q_power((equation[1], g), (equation[2], s))
    # w = 0: P2 = 0, and the solve builds no row of S
    w = _width(equation, max_n) if any(map(any, equation[2])) else 0
    for n in range(max_n + 1):
        if w and n:
            packed.append(_pack(g[n - 1], w))
            s.append(_square(packed, n - 1, w))
        g.append(_trim(_add(p0[n], _linear_row(groups, n))))
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
    g = _solve(_DES_321, max_n)[0]
    groups = _by_q_power((_DES_321[2], g))
    return BivariateSeries(_linear_row(groups, n) for n in range(len(g)))


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
