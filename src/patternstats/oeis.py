"""OEIS b-file client with a local cache, plus sequence flattenings.

``fetch`` downloads a sequence's b-file once and caches the raw bytes in a
directory of one file per sequence, renamed into place once fully
written; warm-cache fetches never touch the network.  The cache directory
is, in order of precedence, the explicit argument, the
``PATTERNSTATS_OEIS_CACHE`` environment variable, or
``~/.cache/patternstats/oeis``.

Locally computed reference terms come from the package's own formulas and
series: no sequence data is embedded in the source.  Each entry of
:data:`REGISTRY` names the one source it flattens: a formula id, whose
rows start at the formula's first valid n; a :data:`series.SERIES` name,
whose rows start at n = 1; or None, the Catalan numbers from n = 0.  Rows
are read row-by-row in k within n.  An entry also records how many leading
remote terms to skip, since triangle offsets vary between entries.
``skip_remote`` values are assumptions about the remote convention and are
only exercised by online comparisons.

:data:`FORMULA_SEQUENCES`, the other names ``oeis --formula`` accepts, is
derived from the sources, not listed: an entry's names are every id of
``formulas.FORMULAS`` with the evaluator and first n of the entry's
formula, so their rows are the entry's, and each (statistic, basis) cell
of the entry's series, spelled ``STAT_PATTERN_PATTERN``.  The four cells
of ``ddes132213`` (DASC_132_213, DDES_132_213, DASC_213_231 and
DDES_213_231) name A076791.  A formula no entry's source shares an
evaluator with, such as DES_123_132, has no sequence.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import formulas, series

_ID_RE = re.compile(r"\AA\d{6}\Z")
_URL = "https://oeis.org/{sid}/b{digits}.txt"
_ENV_VAR = "PATTERNSTATS_OEIS_CACHE"


class OeisError(Exception):
    pass


class OeisOfflineError(OeisError):
    """Network unavailable (or offline mode) and the cache is cold."""


class OeisNotFoundError(OeisError):
    """The sequence id does not exist upstream."""


class OeisFormatError(OeisError):
    """A b-file line could not be parsed; ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


@dataclass
class OeisRef:
    id: str
    terms: list[int]
    source: str  # "network" or "cache"


@dataclass
class MatchReport:
    sequence_id: str
    compared: int
    matched_prefix: int
    first_mismatch: tuple[int, int, int] | None  # (index, local, remote)

    @property
    def full_match(self) -> bool:
        return self.first_mismatch is None and self.compared > 0

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence_id,
            "compared": self.compared,
            "matched_prefix": self.matched_prefix,
            "first_mismatch": self.first_mismatch,
        }


def cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "patternstats" / "oeis"


def _check_id(sid: str) -> str:
    if not _ID_RE.match(sid or ""):
        raise ValueError(f"malformed sequence id {sid!r}; expected A followed "
                         "by six digits")
    return sid


def parse_bfile(text: str) -> list[int]:
    """Values from b-file text: one "index value" pair per line, # comments."""
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise OeisFormatError(f"expected two fields, got {line!r}", lineno)
        try:
            int(fields[0])
            terms.append(int(fields[1]))
        except ValueError:
            raise OeisFormatError(f"non-integer field in {line!r}", lineno) from None
    return terms


def _read_bfile(body: bytes) -> list[int]:
    # the one decode of a b-file's bytes, from the cache or the network
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OeisFormatError(
            f"byte {body[exc.start]:#04x} is not UTF-8",
            body.count(b"\n", 0, exc.start) + 1) from None
    return parse_bfile(text)


def fetch(sid: str, cache: str | os.PathLike | None = None,
          offline: bool = False, timeout: float = 20.0) -> OeisRef:
    """Terms of a sequence, from the cache when warm, else one HTTP GET."""
    sid = _check_id(sid)
    directory = cache_dir(cache)
    path = directory / f"{sid}.txt"
    if path.exists():
        return OeisRef(sid, _read_bfile(path.read_bytes()), "cache")
    if offline:
        raise OeisOfflineError(f"offline and no cached terms for {sid}")
    # imported here: the network stack is costly to load, and only a
    # cold-cache fetch needs it
    import urllib.error
    import urllib.request

    url = _URL.format(sid=sid, digits=sid[1:])
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            body = resp.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise OeisNotFoundError(f"no such sequence {sid}") from exc
        raise OeisOfflineError(f"HTTP {exc.code} fetching {sid}") from exc
    except (urllib.error.URLError, OSError) as exc:
        raise OeisOfflineError(f"cannot reach OEIS for {sid}: {exc}") from exc
    terms = _read_bfile(body)
    directory.mkdir(parents=True, exist_ok=True)
    # written beside the cache file and renamed over it, so a failed write
    # never leaves a truncated b-file that a later run reads as the cache;
    # the process id keeps two processes sharing the cache apart
    tmp = directory / f".{sid}.{os.getpid()}.tmp"
    try:
        tmp.write_bytes(body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return OeisRef(sid, terms, "network")


def compare(local: list[int], ref: OeisRef, offset: int = 0) -> MatchReport:
    """Match locally computed terms against ``ref.terms[offset:]``."""
    remote = ref.terms[offset:]
    compared = min(len(local), len(remote))
    mismatch = None
    matched = compared
    for i in range(compared):
        if local[i] != remote[i]:
            mismatch = (i, local[i], remote[i])
            matched = i
            break
    return MatchReport(ref.id, compared, matched, mismatch)


# -- flattening registry ------------------------------------------------------

@dataclass
class SequenceEntry:
    id: str
    description: str
    source: str | None  # a formula id, a series.SERIES name, or None: Catalan
    skip_remote: int = 0

    def local_terms(self, max_n: int) -> list[int]:
        """The source's rows n <= max_n from its first n, each read for
        k = 0..its largest k; the Catalan numbers from n = 0."""
        if self.source is None:
            return [formulas.catalan(n) for n in range(max_n + 1)]
        if self.source in series.SERIES:
            row_of, start = series.expand(self.source, max_n).row_counts, 1
        else:
            row_of = partial(formulas.closed_form_row, self.source)
            start = formulas.formula(self.source).min_n
        rows = map(row_of, range(start, max_n + 1))
        return [row.get(k, 0) for row in rows
                for k in range(max(row, default=0) + 1)]


REGISTRY: dict[str, SequenceEntry] = {entry.id: entry for entry in (
    SequenceEntry("A000108", "Catalan numbers: single-pattern class sizes, "
                  "n >= 0", None),
    SequenceEntry("A001263", "Narayana triangle: ascents over one-pattern "
                  "classes, rows n >= 1, k = 0..n-1", "ASC231"),
    SequenceEntry("A007318", "Pascal's triangle: ascents over S_n(213,312), "
                  "rows n >= 1, k = 0..n-1", "ASC_213_312"),
    SequenceEntry("A091894", "peaks over S_n(231): rows n >= 1; the remote "
                  "triangle carries a leading row for the empty permutation",
                  "PK231", skip_remote=1),
    SequenceEntry("A076791", "double descents over S_n(132,213): rows n >= 1 "
                  "(binary words of length n-1 by their 00 count)",
                  "ddes132213"),
    SequenceEntry("A034867", "peaks over S_n(132,213): rows n >= 1",
                  "PK_132_213"),
    SequenceEntry("A034839", "ascents over S_n(123,132): rows n >= 1; the "
                  "remote triangle carries a leading row for the empty "
                  "permutation", "ASC_123_132", skip_remote=1),
    SequenceEntry("A093560", "double descents over S_n(123,132): rows n >= 3; "
                  "the remote triangle carries one leading boundary row",
                  "DDES_123_132", skip_remote=1),
    SequenceEntry("A119462", "valleys over S_n(123,132): rows n >= 2; the "
                  "remote triangle carries one leading boundary row",
                  "VL_123_132", skip_remote=1),
    SequenceEntry("A299927", "double ascents over S_n(213,312): rows n >= 1",
                  "DASC_213_312"),
)}


def _names(source: str | None) -> list[str]:
    """The names that flatten to the terms of ``source``: each formula
    with its evaluator and first n, or each cell of its series."""
    if source in series.SERIES:
        return [f"{stat}_{basis}".upper().replace(",", "_")
                for stat, basis in series.SERIES[source][1]]
    spec = formulas.FORMULAS.get(source)
    return [fid for fid, other in formulas.FORMULAS.items()
            if spec and (other.fn, other.min_n) == (spec.fn, spec.min_n)]


# formula id or series cell -> the A-number its rows flatten to
FORMULA_SEQUENCES = {name: entry.id for entry in REGISTRY.values()
                     for name in _names(entry.source)}


def sequence_for(name: str) -> SequenceEntry:
    """Registry entry for an A-number or a name of FORMULA_SEQUENCES."""
    sid = FORMULA_SEQUENCES.get(name, name)
    if sid not in REGISTRY:
        raise KeyError(f"no registered flattening for {name!r}")
    return REGISTRY[sid]


def local_terms(name: str, max_n: int) -> list[int]:
    """Locally computed terms of an A-number or a derived name, n <= max_n."""
    series._check_max_n(max_n)
    return sequence_for(name).local_terms(max_n)


def local_bfile(name: str, max_n: int) -> str:
    """Locally computed terms rendered in b-file format, indexed from 1."""
    terms = local_terms(name, max_n)
    return "".join(f"{i} {t}\n" for i, t in enumerate(terms, start=1))


def check_sequence(name: str, max_n: int,
                   cache: str | os.PathLike | None = None,
                   offline: bool = False) -> MatchReport:
    """Compare the local flattening against fetched data."""
    series._check_max_n(max_n)
    entry = sequence_for(name)
    ref = fetch(entry.id, cache=cache, offline=offline)
    return compare(entry.local_terms(max_n), ref, offset=entry.skip_remote)
