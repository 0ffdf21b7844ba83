import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patternstats.cli import main
from patternstats.dyck import interior_uud_count, uud_count
from patternstats.formulas import catalan, closed_form_row
from patternstats.generate import gen_bits, gen_dyck, gen_indec
from patternstats.series import (
    BivariateSeries,
    _solve,
    series_ddes_132_213,
    series_des_321,
    series_indec_interior_uud,
    series_indec_uud,
    series_pk_321,
)

from helpers import naive_dist


def _tally(values):
    out = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def test_des_321_series_small_rows():
    a = series_des_321(10)
    assert a.row_counts(0) == {0: 1}
    assert a.coeff(3, 1) == 4
    for n in range(11):
        assert a.row_sum(n) == catalan(n)


def test_des_321_series_matches_naive_oracle():
    a = series_des_321(6)
    for n in range(7):
        assert a.row_counts(n) == naive_dist("des", n, [(3, 2, 1)])


def test_pk_321_series():
    c = series_pk_321(10)
    assert c.coeff(3, 1) == 2
    assert c.coeff(1, 0) == 1
    for n in range(11):
        assert c.row_sum(n) == catalan(n)
    for n in range(7):
        assert c.row_counts(n) == naive_dist("pk", n, [(3, 2, 1)])


def test_indec_uud_series_matches_tallies():
    b = series_indec_uud(8)
    for n in range(9):
        assert b.row_counts(n) == _tally(uud_count(d) for d in gen_indec(n))


def test_indec_interior_uud_series_is_shift_and_matches_tallies():
    d = series_indec_interior_uud(8)
    a = series_des_321(7)
    assert d.row_counts(0) == {}
    for n in range(8):
        assert d.row_counts(n + 1) == a.row_counts(n)
        assert d.row_counts(n + 1) == _tally(
            interior_uud_count(w) for w in gen_indec(n + 1))


def test_ddes_132_213_series():
    f = series_ddes_132_213(10)
    assert f.row_counts(0) == {0: 1}
    for n in range(1, 11):
        assert f.row_sum(n) == 2 ** (n - 1)
    # column q^0 counts binary words without a 00 factor
    for n in range(1, 6):
        free = sum(1 for bits in gen_bits(n - 1) if "00" not in bits)
        assert f.coeff(n, 0) == free
    for n in range(7):
        assert f.row_counts(n) == naive_dist("ddes", n, [(1, 3, 2), (2, 1, 3)])


def test_coeff_contracts():
    a = series_des_321(4)
    assert a.coeff(2, 5) == 0
    with pytest.raises(IndexError):
        a.coeff(5, 0)
    with pytest.raises(IndexError):
        a.row_counts(5)


def test_series_equality_hash_and_repr():
    # rows are compared after their trailing zeros are trimmed
    a = series_des_321(4)
    same = BivariateSeries([list(row) + [0, 0] for row in a.rows])
    assert same == a and hash(same) == hash(a)
    assert len({a, same}) == 1
    assert a != series_des_321(5)
    assert a != series_pk_321(4)
    assert a != a.rows and a != None  # noqa: E711
    assert repr(a) == "BivariateSeries(degree=4)"


ALL_SERIES = (series_des_321, series_pk_321, series_indec_uud,
              series_indec_interior_uud, series_ddes_132_213)


@pytest.mark.parametrize("fn", ALL_SERIES, ids=lambda fn: fn.__name__)
def test_degree_zero(fn):
    # B and D have no z^0 term; the other three start 1 + z
    row0 = () if fn in (series_indec_uud, series_indec_interior_uud) else (1,)
    a = fn(0)
    assert a.degree == 0
    assert a.rows == (row0,)
    assert fn(1).rows == (row0, (1,))


def _trim(row):
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return tuple(row)


def _ref_mul(x, y, n_max):
    """Rows 0..n_max of the product of two series, by the full convolution."""
    width = max(map(len, x)) + max(map(len, y))
    out = [[0] * width for _ in range(n_max + 1)]
    for a in range(n_max + 1):
        for b in range(n_max + 1 - a):
            for i, u in enumerate(x[a]):
                for j, v in enumerate(y[b]):
                    out[a + b][i + j] += u * v
    return [_trim(r) for r in out]


def _ref_div(x, y, n_max):
    """Rows 0..n_max of x / y for y with constant term 1, by long division."""
    out = []
    for n in range(n_max + 1):
        acc = list(x[n]) if n < len(x) else []
        for m in range(1, min(n, len(y) - 1) + 1):
            for i, u in enumerate(y[m]):
                for j, v in enumerate(out[n - m]):
                    acc += [0] * (i + j + 1 - len(acc))
                    acc[i + j] -= u * v
        out.append(_trim(acc))
    return out


def _reference_rows(n_max):
    """Every series by an independent route: G by fixed-point iteration, B by
    division, ddes132213 by dividing out its rational form."""
    w = [(), (1,), (-1, 1)] + [()] * n_max  # z(1 - z + qz)
    g = [(1,)] + [()] * n_max
    for _ in range(n_max + 1):
        # G <- 1 + w G^2; w has no constant term, so row 0 stays 1
        g = [(1,)] + _ref_mul(w, _ref_mul(g, g, n_max), n_max)[1:]
    g_minus_1 = [()] + g[1:]
    return {
        series_des_321: g,
        series_pk_321: [(1,)] + _ref_mul(g, g, n_max)[:n_max],
        series_indec_uud: _ref_div(g_minus_1, g, n_max),
        series_indec_interior_uud: [()] + g[:n_max],
        series_ddes_132_213: _ref_div([(1,), (0, -1)],
                                      [(1,), (-1, -1), (-1, 1)], n_max),
    }


def test_every_series_matches_the_reference_route():
    want = _reference_rows(20)
    for fn in ALL_SERIES:
        for m in range(21):
            assert fn(m).rows == tuple(want[fn][:m + 1]), (fn.__name__, m)


def test_des_321_solves_its_functional_equation():
    # G = 1 + z(1 - z + qz) G^2, checked through n = 60, and pk321 = 1 + z G^2
    g = series_des_321(60).rows
    sq = _ref_mul(g, g, 60)
    assert series_pk_321(60).rows == ((1,),) + tuple(sq[:60])
    for n in range(1, 61):
        want = list(sq[n - 1]) + [0]
        if n >= 2:
            for k, c in enumerate(sq[n - 2]):
                want[k] -= c
                want[k + 1] += c
        assert g[n] == _trim(want), n


def test_321_row_sums_are_catalan_far_past_brute_force():
    a, c = series_des_321(100), series_pk_321(100)
    for n in range(101):
        assert a.row_sum(n) == c.row_sum(n) == catalan(n)


def test_indec_uud_is_shifted_peak_triangle_of_231():
    # B = z(1 - q) + sum_{n >= 0} PK231(n, k) q^(k+1) z^(n+1)
    b = series_indec_uud(61)
    assert b.row_counts(0) == {} and b.row_counts(1) == {0: 1}
    for n in range(1, 61):
        want = {k + 1: v for k, v in closed_form_row("PK231", n).items()}
        assert b.row_counts(n + 1) == want, n


def test_indec_interior_uud_is_z_times_des_321():
    assert series_indec_interior_uud(60).rows == ((),) + series_des_321(59).rows


def test_ddes_132_213_satisfies_its_rational_form():
    # (1 - z - z^2 - qz + qz^2) F = 1 - qz, checked through n = 300
    f = series_ddes_132_213(300).rows
    for n in range(301):
        acc = list(f[n]) + [0]
        for sign, q_shift, z_lag in ((-1, 0, 1), (-1, 1, 1), (-1, 0, 2),
                                     (1, 1, 2)):
            if n >= z_lag:
                for k, c in enumerate(f[n - z_lag]):
                    acc[k + q_shift] += sign * c
        assert _trim(acc) == {0: (1,), 1: (0, -1)}.get(n, ()), n


def _pad(p, n_max):
    """Rows 0..n_max of the polynomial with rows p."""
    return list(p[:n_max + 1]) + [()] * (n_max + 1 - len(p))


def _ref_add(*xs):
    """Rows of the sum of series with equally many rows."""
    out = []
    for rows in zip(*xs):
        acc = [0] * max(map(len, rows))
        for row in rows:
            for k, c in enumerate(row):
                acc[k] += c
        out.append(_trim(acc))
    return out


_ROWS = st.lists(st.lists(st.integers(-3, 3), max_size=3).map(tuple),
                 max_size=4).map(tuple)
# P1 and P2 have no z^0 row; () is the zero polynomial
_NO_Z0 = st.one_of(st.just(()), _ROWS.map(lambda rows: ((),) + rows))


@settings(max_examples=200, deadline=None)
@given(p0=_ROWS, p1=_NO_Z0, p2=_NO_Z0, n_max=st.integers(0, 8))
# G = 1 + z(1 - z + qz) G^2, and F = 1 - qz + (z + qz + z^2 - qz^2) F
@example(p0=((1,),), p1=(), p2=((), (1,), (-1, 1)), n_max=8)
@example(p0=((1,), (0, -1)), p1=((), (1, 1), (1, -1)), p2=(), n_max=8)
# factors 2 and -3 on q^1, a power that the z^1 and z^2 rows of P1 share
@example(p0=((1,), (0, 1)), p1=((), (0, 2), (1, -3)), p2=(), n_max=8)
# G = 1 + z(q - 1) G^2: G and G^2 have coefficients of both signs
@example(p0=((1,),), p1=(), p2=((), (-1, 1)), n_max=8)
# coefficients near 10^6: the largest of G^2 and the bound on them both
# have 496 bits, a multiple of 8
@example(p0=((-990_000,), (0, 10**6)), p1=((), (999_999,)),
         p2=((), (-10**6,)), n_max=12)
# every kind of term at once, far past the drawn degrees
@example(p0=((1,), (0, -2)), p1=((), (0, 2), (-1, 0, 3)),
         p2=((), (1, -1), (-2, 0, 1)), n_max=20)
def test_solve_satisfies_its_equation(p0, p1, p2, n_max):
    # G = P0 + P1 G + P2 G^2 mod z^(n_max + 1), and S = G^2 to n_max - 1
    g, s = _solve((p0, p1, p2), n_max)
    sq = _ref_mul(g, g, n_max)
    assert g == _ref_add(_pad(p0, n_max),
                         _ref_mul(_pad(p1, n_max), g, n_max),
                         _ref_mul(_pad(p2, n_max), sq, n_max))
    assert s == (sq[:n_max] if any(map(any, p2)) else [])


@pytest.mark.parametrize("fn", ALL_SERIES, ids=lambda fn: fn.__name__)
def test_negative_degree_raises(fn):
    with pytest.raises(ValueError, match="nonnegative"):
        fn(-1)


def test_cli_rejects_negative_degree(capsys):
    code = main(["series", "--name", "des321", "--max-n", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "nonnegative" in captured.err
