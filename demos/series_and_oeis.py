"""Expand the generating functions and export OEIS-style term lists.

Row sums of the descent and peak series over 321-avoiders recover the
Catalan numbers; the rational series for the 2^(n-1) class sums to powers
of two.  The final section renders a b-file of locally computed terms and,
when PATTERNSTATS_ONLINE=1 is set and the network is reachable, compares
them with the published data.
"""

import os

from patternstats import series_ddes_132_213, series_des_321, series_pk_321
from patternstats.oeis import OeisOfflineError, check_sequence, local_bfile


def main():
    a = series_des_321(10)
    c = series_pk_321(10)
    f = series_ddes_132_213(10)
    print("n   des-row (321)              pk-row (321)        row sum")
    for n in range(11):
        da = a.row_counts(n)
        dc = c.row_counts(n)
        print(f"{n:>2}  {str(da):<26} {str(dc):<19} {a.row_sum(n)}")
    print("\nrational-series row sums:",
          [f.row_sum(n) for n in range(11)])

    print("\nb-file of the peak triangle over 231-avoiders (first lines):")
    for line in local_bfile("PK231", 8).splitlines()[:10]:
        print(" ", line)

    try:
        report = check_sequence(
            "PK231", 12, offline=os.environ.get("PATTERNSTATS_ONLINE") != "1")
        print(f"\nA091894 comparison: matched prefix {report.matched_prefix}, "
              f"mismatch {report.first_mismatch}")
    except OeisOfflineError:
        print("\nA091894 comparison skipped: network unavailable")


if __name__ == "__main__":
    main()
