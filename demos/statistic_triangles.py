"""Print statistic distribution triangles over pattern classes.

For each (statistic, basis) pair with a registered closed form, the rows
a(n, k) are computed twice: by brute-force enumeration of the class and by
the formula.  The two columns must agree line for line.
"""

from patternstats import distribution
from patternstats.formulas import closed_form_row, formula, formula_ids
from patternstats.perms import format_basis

SHOWCASE = ["PK231", "ASC_213_312", "DASC_213_312", "PK_132_213",
            "DDES_123_132", "VL_132_321"]


def show(fid, max_n=8):
    spec = formula(fid)
    print(f"\n{fid}: {spec.stat} over permutations avoiding "
          f"{format_basis(spec.basis)}")
    for n in range(spec.min_n, max_n + 1):
        oracle = distribution(spec.stat, spec.basis, n)
        closed = closed_form_row(fid, n)
        marker = "ok" if oracle == closed else "MISMATCH"
        row = " ".join(f"{closed.get(k, 0)}" for k in range(max(closed, default=0) + 1))
        print(f"  n={n:>2}  [{row}]  {marker}")


def main():
    print(f"{len(formula_ids())} closed forms registered")
    for fid in SHOWCASE:
        show(fid)


if __name__ == "__main__":
    main()
