"""Command-line interface.

Subcommands: ``dist`` (distribution tables), ``map`` (apply a bijection),
``series`` (generating-function coefficient triangles), ``verify`` (run
the verification harness), and ``oeis`` (export or cross-check sequence
terms).

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage error, 3 environment or network error.

The CLI keeps no table of its own for methods, series or formulas:
``dist --method`` reads its choices from
:data:`~patternstats.distributions.METHODS`, ``series`` reads its names
from :data:`~patternstats.series.SERIES`, and ``series``,
``dist --method series``, ``dist --method closed_form`` and the local
terms of ``oeis`` refuse a degree above the series cap through
:meth:`~patternstats.generate.Caps.check_series`.  The config file sets
three caps, one per kind of work: ``gen_cap`` for the n! scans of a basis
with a pattern of length other than 3, ``structured_cap`` for every
basis of length-3 patterns and the Dyck and bit words that encode them,
and ``series_cap``.  Each route of ``METHODS`` names the cells it
answers; ``dist_table`` derives the rest of a cell's reverse/complement
orbit, so the CLI never asks which cells a route answers.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from . import bijections, distributions, dyck, formulas, generate, oeis, series
from .perms import format_perm, parse_basis, parse_perm
from .stats import STATS, all_stats

# bijection name -> (input kind, function, output kind)
_MAPS = {
    "phi": ("perm", bijections.to_dyck_231, "dyck"),
    "phi_inv": ("dyck", bijections.from_dyck_231, "perm"),
    "psi": ("perm", bijections.to_dyck_321, "dyck"),
    "psi_inv": ("dyck", bijections.from_dyck_321, "perm"),
    "psi_hat": ("perm", bijections.to_indec_dyck_321, "dyck"),
    "zeta": ("perm", bijections.rewrite_312_to_321, "perm"),
    "zeta_inv": ("perm", bijections.rewrite_321_to_312, "perm"),
    "iota": ("dyck", bijections.uud_des_involution, "dyck"),
    "enc132213": ("perm", bijections.encode_132_213, "bits"),
    "dec132213": ("bits", bijections.decode_132_213, "perm"),
    "enc213231": ("perm", bijections.encode_213_231, "bits"),
    "dec213231": ("bits", bijections.decode_213_231, "perm"),
    "enc123132": ("perm", bijections.encode_123_132, "bits"),
    "dec123132": ("bits", bijections.decode_123_132, "perm"),
}


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    cfg = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                             f"known keys: {', '.join(_CONFIG_KEYS)}")
        cfg[key] = value.strip()
    return cfg


# config key -> Caps field
_CAP_KEYS = {"gen_cap": "perm", "structured_cap": "structured",
             "series_cap": "series"}
_CONFIG_KEYS = sorted([*_CAP_KEYS, "cache_dir"])


def _caps(cfg: dict[str, str]) -> generate.Caps:
    caps = {}
    for key, field in _CAP_KEYS.items():
        if key in cfg:
            if not re.fullmatch(r"[0-9]+", cfg[key]):
                raise ValueError(f"config key {key} must be a nonnegative "
                                 f"integer, got {cfg[key]!r}")
            caps[field] = int(cfg[key])
    return generate.Caps(**caps)


def _parse_ns(text: str) -> range:
    """The lengths of ``--n``: one length N, or a range LO-HI with LO <= HI.

    The range is not listed, so a refused range costs no more than a short
    one."""
    match = re.fullmatch(r"\s*(\d+)\s*(?:-\s*(\d+)\s*)?", text)
    if match is None:
        raise ValueError(f"--n expects a length N or a range LO-HI of "
                         f"nonnegative integers, got {text!r}")
    lo = int(match[1])
    hi = lo if match[2] is None else int(match[2])
    if lo > hi:
        raise ValueError(f"--n range {text!r} is reversed: {lo} > {hi}")
    return range(lo, hi + 1)


def _render_rows(rows: list[tuple[int, int, int]], fmt: str) -> str:
    if fmt == "csv":
        lines = ["n,k,count"]
        lines += [f"{n},{k},{c}" for n, k, c in rows]
        return "\n".join(lines)
    lines = ["| n | k | count |", "| - | - | - |"]
    lines += [f"| {n} | {k} | {c} |" for n, k, c in rows]
    return "\n".join(lines)


def _cmd_dist(args) -> int:
    table = distributions.dist_table(args.stat, parse_basis(args.avoid),
                                     _parse_ns(args.n),
                                     method=args.method, caps=args.caps)
    if args.format == "json":
        print(table.to_json())
    else:
        rows = [(n, k, c) for n in sorted(table.rows)
                for k, c in sorted(table.rows[n].items())]
        print(_render_rows(rows, args.format))
    return 0


def _dyck_summary(d: str) -> dict:
    return {
        "uud": dyck.uud_count(d),
        "interior_uud": dyck.interior_uud_count(d),
        "duu": dyck.factor_count(d, "DUU"),
    }


def _cmd_map(args) -> int:
    if args.bijection not in _MAPS:
        print(f"unknown bijection {args.bijection!r}; choose from "
              f"{', '.join(sorted(_MAPS))}", file=sys.stderr)
        return 2
    in_kind, fn, out_kind = _MAPS[args.bijection]
    if in_kind == "perm":
        value = parse_perm(args.input)
    elif in_kind == "dyck":
        up, down = ("1", "0") if args.alphabet == "10" else ("U", "D")
        value = dyck.parse_dyck(args.input, up=up, down=down)
    else:
        value = bijections.check_bits(args.input)
    image = fn(value)
    rendered = format_perm(image) if out_kind == "perm" else image
    summary: dict = {}
    for tag, kind, item in (("input", in_kind, value), ("image", out_kind, image)):
        if kind == "perm":
            summary.update({f"{tag}_{k}": v for k, v in all_stats(item).items()})
        elif kind == "dyck":
            summary.update({f"{tag}_{k}": v for k, v in _dyck_summary(item).items()})
    if args.format == "json":
        print(json.dumps({"bijection": args.bijection, "input": args.input,
                          "image": rendered, "summary": summary}, indent=2))
    else:
        print(rendered)
        print(" ".join(f"{k}={v}" for k, v in sorted(summary.items())))
    return 0


def _cmd_series(args) -> int:
    args.caps.check_series(args.max_n)
    s = series.expand(args.name, args.max_n)
    rows = [sorted(s.row_counts(n).items()) for n in range(args.max_n + 1)]
    if args.format == "json":
        print(json.dumps({
            "name": args.name,
            "max_n": args.max_n,
            "rows": [{"n": n, "counts": {str(k): c for k, c in row}}
                     for n, row in enumerate(rows)],
        }, indent=2))
    else:
        print(_render_rows([(n, k, c) for n, row in enumerate(rows)
                            for k, c in row], args.format))
    return 0


def _cmd_verify(args) -> int:
    registry = distributions.checks()
    if args.list:
        for name in registry:
            print(name)
        return 0
    unknown = [name for name in args.only or () if name not in registry]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    reports = distributions.verify_all(args.max_n, selection=args.only,
                                       caps=args.caps)
    if args.format == "json":
        print(distributions.reports_json(reports))
    else:
        for r in reports:
            if r.passed:
                print(f"PASS {r.name} (n<={r.max_n}, {r.checked} comparisons)")
            else:
                print(f"FAIL {r.name}: {r.failure}")
        total = sum(1 for r in reports if r.passed)
        print(f"{total}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_oeis(args) -> int:
    name = args.formula or args.sequence
    cache = args.cache_dir or args.config_values.get("cache_dir")
    try:
        entry = oeis.sequence_for(name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    args.caps.check_series(args.max_n)
    if args.check:
        report = oeis.check_sequence(name, args.max_n, cache=cache,
                                     offline=args.offline)
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.full_match else 1
    if args.format == "json":
        terms = oeis.local_terms(name, args.max_n)
        print(json.dumps({"sequence": entry.id, "terms": terms}, indent=2))
    else:
        sys.stdout.write(oeis.local_bfile(name, args.max_n))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patternstats",
        description="Statistic distributions over pattern-avoiding "
                    "permutation classes")
    parser.add_argument("--config", help="key=value file for caps and cache dir")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distribution of a statistic over a class")
    p.add_argument("--stat", required=True, choices=STATS)
    p.add_argument("--avoid", required=True,
                   help="comma-separated patterns, e.g. 231 or 213,312")
    p.add_argument("--n", required=True, help="length or range, e.g. 6 or 2-8")
    p.add_argument("--method", default="oracle",
                   choices=tuple(distributions.METHODS),
                   help="closed_form and series answer their own cells "
                        "and those cells' r/c/rc images")
    p.add_argument("--format", default="json",
                   choices=("json", "csv", "markdown"))
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("map", help="apply a bijection to one object")
    p.add_argument("--bijection", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--alphabet", default="UD", choices=("UD", "10"),
                   help="alphabet for Dyck-word inputs")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("series", help="coefficient triangle of a series")
    p.add_argument("--name", required=True, choices=sorted(series.SERIES))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", default="csv",
                   choices=("json", "csv", "markdown"))
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="run verification checks")
    p.add_argument("--all", action="store_true",
                   help="run every check: the default when no --only is given")
    p.add_argument("--only", action="append", help="check name (repeatable)")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--list", action="store_true", help="list check names")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oeis", help="export or cross-check sequence terms")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula", help="formula id, e.g. PK231")
    group.add_argument("--sequence", help="sequence id, e.g. A091894")
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--format", default="bfile", choices=("bfile", "json"))
    p.add_argument("--check", action="store_true",
                   help="fetch the sequence and compare")
    p.add_argument("--offline", action="store_true")
    p.add_argument("--cache-dir")
    p.set_defaults(func=_cmd_oeis)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call of main, not at import, and kept for the
    # process: parsing reads the tree and changes nothing in it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.config_values = _load_config(args.config)
        args.caps = _caps(args.config_values)
        return args.func(args)
    except oeis.OeisOfflineError as exc:
        print(f"network unavailable: {exc}", file=sys.stderr)
        return 3
    except oeis.OeisFormatError as exc:
        print(f"bad b-file: {exc}", file=sys.stderr)
        return 3
    except (ValueError, formulas.UnknownFormulaError,
            oeis.OeisNotFoundError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(message, file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
