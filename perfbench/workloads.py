"""The benchmark's workloads.

Each workload builds its inputs from a seed (``build``), runs one pass over
them (``run``) and checks one pass's outputs (``check``).  A pass returns a
list of outputs; ``check`` turns it into one verdict per op, where an op is
one verify check, one dist job, one series expansion or one round trip.
An op that raises is recorded as ``("raised", message)`` and fails its
check; it never stops the pass.

``run`` takes a ``span(name, site)`` factory: the untraced run passes
:func:`no_span`, the traced run the tracer's ``span``.  Program functions
are looked up on their module at call time, so a traced run sees them.

Sizes are scaled from the full-size runs (verify at max-n 8, dist at
N = 10/14, series at 40/400) so that one pass takes about a second and a
run holds many passes; the mix of layers each workload loads is kept.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from patternstats import bijections, cli, distributions, formulas, perms, series  # noqa: E402
from patternstats.stats import STATS  # noqa: E402


def no_span(name: str, site: str):
    return contextlib.nullcontext()


def _raised(exc: BaseException) -> tuple[str, str]:
    return ("raised", f"{type(exc).__name__}: {exc}")


def run_cli(argv: list[str]):
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        return _raised(exc)
    return (code, out.getvalue())


def _basis(text: str) -> tuple:
    return tuple(tuple(int(ch) for ch in part) for part in text.split(","))


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# -- verify -------------------------------------------------------------------

class Verify:
    """All verify checks through ``cli.main``, from a cleared oracle cache."""

    max_n = 7

    def __init__(self):
        self._names = None

    def build(self, seed: int):
        return ["verify", "--all", "--max-n", str(self.max_n), "--format", "json"]

    def run(self, argv, span):
        distributions.clear_caches()
        return [run_cli(argv)]

    def names(self) -> list[str]:
        if self._names is None:
            code, text = run_cli(["verify", "--list"])
            self._names = text.split() if code == 0 else []
        return self._names

    def check(self, argv, outputs) -> list[bool]:
        names = self.names()
        if not names:
            return [False]
        (code, text), = outputs
        try:
            doc = json.loads(text) if code != "raised" else {}
            reports = doc.get("reports", [])
            if [r["name"] for r in reports] != names:
                return [False] * len(names)
            ok = [r["passed"] is True and r["max_n"] == self.max_n
                  for r in reports]
        except (ValueError, KeyError, TypeError, AttributeError):
            return [False] * len(names)
        if doc.get("passed") is not all(ok) or code != (0 if all(ok) else 1):
            return [False] * len(names)
        return ok


# -- dist-structured ----------------------------------------------------------

# every basis with a structured generator, with the largest n of its jobs
DIST_BASES = (("231", 9), ("321", 9), ("213,312", 12), ("132,213", 12),
              ("213,231", 12), ("123,132", 12), ("132,321", 12))


class DistStructured:
    """``dist --stat S --avoid B --n 0-N`` for every statistic and basis."""

    def __init__(self):
        self._want: dict = {}

    def build(self, seed: int):
        return [(stat, basis, top,
                 ["dist", "--stat", stat, "--avoid", basis, "--n", f"0-{top}",
                  "--format", "json"])
                for basis, top in DIST_BASES for stat in STATS]

    def run(self, jobs, span):
        out = []
        for stat, basis, top, argv in jobs:
            with span(f"dist {stat} {basis} 0-{top}", "bench.job"):
                distributions.clear_caches()
                out.append(run_cli(argv))
        return out

    @staticmethod
    def class_size(basis: str, n: int) -> int:
        if "," not in basis:
            return _catalan(n)
        if basis == "132,321":
            return comb(n, 2) + 1
        return 2 ** (n - 1) if n else 1

    def want(self, stat: str, basis: str, n: int):
        """(class size, closed-form row or None, series row or None)."""
        key = (stat, basis, n)
        if key not in self._want:
            spec = formulas.formula_for(stat, _basis(basis))
            closed = (formulas.closed_form_row(spec.id, n)
                      if spec is not None and n >= spec.min_n else None)
            try:
                from_series = distributions.distribution(
                    stat, _basis(basis), n, method="series")
            except distributions.UnsupportedMethodError:
                from_series = None
            self._want[key] = (self.class_size(basis, n), closed, from_series)
        return self._want[key]

    def check_job(self, job, output) -> bool:
        stat, basis, top, _ = job
        code, text = output
        if code != 0:
            return False
        try:
            rows = json.loads(text)
            if [r["n"] for r in rows] != list(range(top + 1)):
                return False
            for r in rows:
                if (r["stat"], r["basis"], r["method"]) != (
                        stat, basis.split(","), "oracle"):
                    return False
                counts = {int(k): v for k, v in r["counts"].items()}
                size, closed, from_series = self.want(stat, basis, r["n"])
                if sum(counts.values()) != size:
                    return False
                if closed is not None and counts != closed:
                    return False
                if from_series is not None and counts != from_series:
                    return False
        except (ValueError, KeyError, TypeError, AttributeError):
            return False
        return True

    def check(self, jobs, outputs) -> list[bool]:
        return [self.check_job(job, out) for job, out in zip(jobs, outputs)]


# -- series -------------------------------------------------------------------

SERIES_RUNS = (("des321", "series_des_321", 30),
               ("pk321", "series_pk_321", 30),
               ("B", "series_indec_uud", 30),
               ("D", "series_indec_interior_uud", 30),
               ("ddes132213", "series_ddes_132_213", 300))


def _sparse(row) -> dict[int, int]:
    return {k: c for k, c in enumerate(row) if c}


def _trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _combine(*terms) -> tuple[int, ...]:
    """Sum of (factor, q-shift, row) terms, each row a tuple over q."""
    out: list[int] = []
    for factor, shift, row in terms:
        out += [0] * (shift + len(row) - len(out))
        for k, c in enumerate(row):
            out[k + shift] += factor * c
    return _trim(out)


def _square(rows) -> list[tuple[int, ...]]:
    """Rows of the square of a series, to the same z-degree."""
    out = []
    for n in range(len(rows)):
        acc = [0] * (2 * max(len(r) for r in rows[:n + 1]))
        for a in range(n + 1):
            for i, x in enumerate(rows[a]):
                for j, y in enumerate(rows[n - a]):
                    acc[i + j] += x * y
        out.append(_trim(acc))
    return out


def _solves_des321(g) -> bool:
    """G = 1 + z(1 - z + qz) G^2, to the truncation of ``g``."""
    s = _square(g)
    return all(
        g[n] == _combine((1, 0, (1,) if n == 0 else ()),
                         (1, 0, s[n - 1] if n >= 1 else ()),
                         (-1, 0, s[n - 2] if n >= 2 else ()),
                         (1, 1, s[n - 2] if n >= 2 else ()))
        for n in range(len(g)))


def _solves_ddes132213(f) -> bool:
    """(1 - z - z^2 - qz + qz^2) F = 1 - qz, to the truncation of ``f``."""
    return all(
        _combine((1, 0, f[n]),
                 (-1, 0, f[n - 1] if n >= 1 else ()),
                 (-1, 1, f[n - 1] if n >= 1 else ()),
                 (-1, 0, f[n - 2] if n >= 2 else ()),
                 (1, 1, f[n - 2] if n >= 2 else ()))
        == {0: (1,), 1: (0, -1)}.get(n, ())
        for n in range(len(f)))


class Series:
    """The five series expansions, called on the library directly.

    An expansion is checked by its row sums and by the equation that defines
    it; pk321, B and D are checked against the descent series G over
    321-avoiders, which is recomputed and checked against its own equation.
    """

    def __init__(self):
        self._g: dict[int, tuple | None] = {}

    def build(self, seed: int):
        return SERIES_RUNS

    def run(self, runs, span):
        out = []
        for label, fname, max_n in runs:
            with span(f"series {label} {max_n}", "bench.expansion"):
                try:
                    out.append(getattr(series, fname)(max_n).rows)
                except Exception as exc:
                    out.append(_raised(exc))
        return out

    @staticmethod
    def row_sum(label: str, n: int) -> int:
        if label in ("des321", "pk321"):
            return _catalan(n)
        if label in ("B", "D"):
            return _catalan(n - 1) if n else 0
        return 2 ** (n - 1) if n else 1

    def descent_series(self, max_n: int):
        """Checked rows of G to z-degree max_n, or None if G is wrong."""
        if max_n not in self._g:
            g = series.series_des_321(max_n).rows
            self._g[max_n] = g if _solves_des321(g) else None
        return self._g[max_n]

    def check_run(self, label: str, max_n: int, rows) -> bool:
        try:
            if len(rows) != max_n + 1 or any(
                    sum(rows[n]) != self.row_sum(label, n)
                    for n in range(max_n + 1)):
                return False
            if label == "des321":
                return _solves_des321(rows)
            if label == "ddes132213":
                return _solves_ddes132213(rows)
            if label == "B":
                # B = z(1 - q) + sum_n PK231(n, k) q^(k+1) z^(n+1)
                want = [{}, {0: 1}] + [
                    {k + 1: v for k in range(n + 1)
                     if (v := formulas.closed_form("PK231", n, k))}
                    for n in range(1, max_n)]
                return [_sparse(r) for r in rows] == want
            g = self.descent_series(max_n)
            if g is None:
                return False
            if label == "pk321":
                # 1 + z G^2
                return tuple(rows) == ((1,),) + tuple(_square(g)[:max_n])
            # D is the z-shift of G
            return tuple(rows) == ((),) + g[:max_n]
        except (TypeError, ValueError, IndexError):
            return False

    def check(self, runs, outputs) -> list[bool]:
        return [self.check_run(label, max_n, rows)
                for (label, _, max_n), rows in zip(runs, outputs)]


# -- roundtrip ----------------------------------------------------------------

ROUNDTRIP_OBJECTS = 32
ROUNDTRIP_SIZE = 300
ENCODINGS = (("132,213", "decode_132_213", "encode_132_213"),
             ("213,231", "decode_213_231", "encode_213_231"),
             ("123,132", "decode_123_132", "encode_123_132"))


def random_dyck(rng: random.Random, n: int) -> str:
    """Uniform Dyck word of semilength n, by the cycle lemma.

    Of the 2n + 1 rotations of a word with n Us and n + 1 Ds exactly one,
    the one starting after the first minimum of the walk, stays at or above
    its start until the final D.
    """
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    h = low = cut = 0
    for i, s in enumerate(steps):
        h += 1 if s == "U" else -1
        if h < low:
            low, cut = h, i + 1
    return "".join(steps[cut:] + steps[:cut])[:-1]


def _steps(p) -> list[bool]:
    return [p[i] < p[i + 1] for i in range(len(p) - 1)]


def _count_des(p) -> int:
    return sum(1 for up in _steps(p) if not up)


def _count_pk(p) -> int:
    s = _steps(p)
    return sum(1 for i in range(len(s) - 1) if s[i] and not s[i + 1])


def _stats_of(p) -> dict[str, int]:
    s = _steps(p)
    pairs = list(zip(s, s[1:]))
    return {"asc": s.count(True), "des": s.count(False),
            "dasc": pairs.count((True, True)), "ddes": pairs.count((False, False)),
            "pk": pairs.count((True, False)), "vl": pairs.count((False, True))}


def _factors(word: str, factor: str) -> int:
    return sum(1 for i in range(len(word)) if word.startswith(factor, i))


def _interior_uud(d: str) -> int:
    last_u = d.rfind("U")
    return sum(1 for i in range(len(d) - 2)
               if d.startswith("UUD", i) and i + 1 < last_u)


def _is_dyck(d: str) -> bool:
    h = 0
    for ch in d:
        if ch not in ("U", "D"):
            return False
        h += 1 if ch == "U" else -1
        if h < 0:
            return False
    return h == 0


def _is_perm(p) -> bool:
    return isinstance(p, tuple) and sorted(p) == list(range(1, len(p) + 1))


def _ltr_maxima(p) -> list[int]:
    best, out = 0, []
    for i, v in enumerate(p):
        if v > best:
            best = v
            out.append(i)
    return out


def _bits_stats(basis: str, bits: str) -> dict[str, int]:
    """The statistics the ENC_* verify checks read off a member's word."""
    if basis != "123,132":
        return {"asc": bits.count("1"), "des": bits.count("0"),
                "dasc": _factors(bits, "11"), "ddes": _factors(bits, "00"),
                "pk": _factors(bits, "10"), "vl": _factors(bits, "01")}
    n = len(bits) + 1
    initial0 = 1 if bits.startswith("0") else 0
    initial00 = 1 if bits.startswith("00") else 0
    n10 = _factors(bits, "10")
    return {"asc": initial0 + n10, "des": n - 1 - initial0 - n10, "dasc": 0,
            "ddes": _factors(bits, "00") + _factors(bits, "11") - initial00,
            "pk": _factors(bits, "01"), "vl": n10 + initial00}


class Roundtrip:
    """Every bijection and its inverse on seeded objects of size about 300.

    Each Dyck word goes through phi^-1 then phi, psi^-1 then psi (with
    psi-hat), zeta^-1 then zeta on the psi^-1 image, and iota twice; each
    bit word through the three decode/encode pairs.
    """

    def build(self, seed: int):
        rng = random.Random(seed)
        n = ROUNDTRIP_SIZE
        words = [random_dyck(rng, n) for _ in range(ROUNDTRIP_OBJECTS)]
        bits = [format(rng.getrandbits(n - 1), f"0{n - 1}b")
                for _ in range(ROUNDTRIP_OBJECTS)]
        return words, bits

    @staticmethod
    def _phi(d):
        p = bijections.from_dyck_231(d)
        return p, bijections.to_dyck_231(p)

    @staticmethod
    def _psi(d):
        q = bijections.from_dyck_321(d)
        return q, bijections.to_dyck_321(q), bijections.to_indec_dyck_321(q)

    @staticmethod
    def _zeta(q):
        r = bijections.rewrite_321_to_312(q)
        return r, bijections.rewrite_312_to_321(r)

    @staticmethod
    def _iota(d):
        e = bijections.uud_des_involution(d)
        return e, bijections.uud_des_involution(e)

    @staticmethod
    def _encoding(decode, encode, bits):
        p = getattr(bijections, decode)(bits)
        return p, getattr(bijections, encode)(p)

    def run(self, inputs, span):
        words, bit_words = inputs
        out = []

        def op(name, fn, *args):
            with span(name, "bench.roundtrip"):
                try:
                    out.append(fn(*args))
                except Exception as exc:
                    out.append(_raised(exc))

        for d in words:
            op("phi", self._phi, d)
            op("psi", self._psi, d)
            psi = out[-1]
            if psi[0] == "raised":
                out.append(("raised", "no psi^-1 image to rewrite"))
            else:
                op("zeta", self._zeta, psi[0])
            op("iota", self._iota, d)
        for bits in bit_words:
            for _, decode, encode in ENCODINGS:
                op(encode, self._encoding, decode, encode, bits)
        return out

    def check(self, inputs, outputs) -> list[bool]:
        words, bit_words = inputs
        verdicts = []
        i = 0
        for d in words:
            phi, psi, zeta, iota = outputs[i:i + 4]
            i += 4
            # zeta and iota are stated on the psi^-1 image
            psi_ok = _holds(_psi_claim, psi, d)
            q = psi[0] if psi_ok else None
            verdicts += [_holds(_phi_claim, phi, d), psi_ok,
                         psi_ok and _holds(_zeta_claim, zeta, q),
                         psi_ok and _holds(_iota_claim, iota, d, q)]
        for bits in bit_words:
            for basis, _, _ in ENCODINGS:
                verdicts.append(_holds(_encoding_claim, outputs[i], bits, basis))
                i += 1
        return verdicts


def _holds(claim, output, *given) -> bool:
    """Whether an op's output satisfies its claim; False if the op raised."""
    if output[0] == "raised":
        return False
    try:
        return bool(claim(*output, *given))
    except (TypeError, ValueError):
        return False


# The claims restate the PHI231, PSI321, PSI_HAT, ZETA, IOTA and ENC_* verify
# checks for one object.

def _phi_claim(p, back, d) -> bool:
    return (back == d and _is_perm(p) and perms.avoids_all(p, [(2, 3, 1)])
            and _factors(d, "DUU") == _count_pk(p))


def _psi_claim(q, back, hat, d) -> bool:
    return (back == d and _is_perm(q) and perms.avoids_all(q, [(3, 2, 1)])
            and hat == "U" + d + "D"
            and _count_pk(q) == _interior_uud(d)
            and _count_des(q) == _interior_uud(hat))


def _zeta_claim(r, back, q) -> bool:
    return (back == q and _is_perm(r) and perms.avoids_all(r, [(3, 1, 2)])
            and [(i, r[i]) for i in _ltr_maxima(r)]
            == [(i, q[i]) for i in _ltr_maxima(q)]
            and _count_pk(r) == _count_pk(q))


def _iota_claim(e, back, d, q) -> bool:
    if back != d or not _is_dyck(e):
        return False
    s, t = _factors(d, "UUD"), _count_des(q)
    if s == t:
        return e == d
    image = bijections.from_dyck_321(e)
    return (_factors(e, "UUD"), _count_des(image)) == (t, s)


def _encoding_claim(p, back, bits, basis) -> bool:
    return (back == bits and _is_perm(p) and perms.avoids_all(p, _basis(basis))
            and _stats_of(p) == _bits_stats(basis, bits))


WORKLOADS = {
    "verify": Verify(),
    "dist-structured": DistStructured(),
    "series": Series(),
    "roundtrip": Roundtrip(),
}
