"""Walk through the bijections and what they transport.

Shows the lattice-path map on a length-9 permutation, the stack-sorting
word of a 231-avoider, the 312 -> 321 rewriting, the UUD/descent
involution on a 20-step word, and the three binary encodings of the
two-pattern classes.
"""

from patternstats import (
    all_stats,
    encode_123_132,
    encode_132_213,
    encode_213_231,
    from_dyck_321,
    gen_dyck,
    interior_uud_count,
    parse_perm,
    rewrite_312_to_321,
    to_dyck_231,
    to_dyck_321,
    uud_count,
    uud_des_involution,
)
from patternstats.dyck import factor_count
from patternstats.stats import des


def main():
    p = parse_perm("617238459")
    d = to_dyck_321(p)
    print(f"lattice-path image of {''.join(map(str, p))}: {d}")
    print(f"  peaks {all_stats(p)['pk']} == interior UUD factors "
          f"{interior_uud_count(d)}")

    q = parse_perm("21534")
    e = to_dyck_231(q)
    print(f"\nstack-sorting word of {''.join(map(str, q))}: {e}")
    print(f"  peaks {all_stats(q)['pk']} == DUU factors "
          f"{factor_count(e, 'DUU')}")

    r = parse_perm("1432")
    print(f"\n312->321 rewrite of 1432: {''.join(map(str, rewrite_312_to_321(r)))}"
          f" (peaks preserved: {all_stats(r)['pk']})")

    d = "UDUDUDUUDUUUUDUDDDDD"
    e = uud_des_involution(d)
    print(f"\ninvolution input  {d}: uud={uud_count(d)} "
          f"des={des(from_dyck_321(d))}")
    print(f"involution output {e}: uud={uud_count(e)} "
          f"des={des(from_dyck_321(e))}")

    fixed = sum(1 for w in gen_dyck(6)
                if uud_des_involution(w) == w)
    print(f"fixed points among the {sum(1 for _ in gen_dyck(6))} words of "
          f"semilength 6: {fixed}")

    print("\nbinary encodings:")
    print(f"  53421 avoiding 132,213 -> {encode_132_213(parse_perm('53421'))}")
    print(f"  51234 avoiding 213,231 -> {encode_213_231(parse_perm('51234'))}")
    print(f"  653241 avoiding 123,132 -> {encode_123_132(parse_perm('653241'))}")


if __name__ == "__main__":
    main()
